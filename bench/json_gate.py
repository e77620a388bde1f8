#!/usr/bin/env python3
"""Assert fields of a command's JSON output.

    python3 bench/json_gate.py FILE EXPR...

FILE is a path, or - for standard input. `j` is the parsed text or,
when human lines surround the JSON, the list of lines starting with
{ or [, each parsed. Each EXPR is a Python expression over `j`, e.g.
'j[0]["tcpfsm"]["segments"] >= 1'. Exits 1 naming the first EXPR that
is false or raises.
"""
import json
import sys


def main(path=None, *exprs):
    if not exprs:
        sys.exit(__doc__)
    text = sys.stdin.read() if path == "-" else open(path).read()
    try:
        j = json.loads(text)
    except ValueError:
        j = [json.loads(l) for l in text.splitlines() if l.startswith(("{", "["))]
    for expr in exprs:
        try:
            ok = eval(expr, {"j": j})
        except Exception as e:
            ok, expr = False, "%s (%s: %s)" % (expr, type(e).__name__, e)
        if not ok:
            sys.exit("json_gate: %s: failed: %s" % (path, expr))


main(*sys.argv[1:])
