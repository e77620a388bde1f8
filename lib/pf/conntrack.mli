(** Connection tracking: the packet filter's dynamic state.

    The paper calls this out as the interesting recovery case
    (Section V): the static ruleset is trivially restorable from the
    storage server, but "when a firewall blocks incoming traffic it must
    not stop data on established outgoing TCP connections after a
    restart" — so after a crash the filter rebuilds this table by
    querying the TCP and UDP servers ({!import}).

    Every entry carries a last-seen timestamp (simulated cycles,
    refreshed by {!seen}/{!insert}) so idle flows actually {e expire}:
    {!expire} sweeps entries idle longer than a TTL, and a hard
    capacity cap evicts rather than growing without bound.

    Entries are additionally classed {e half-open} or {e confirmed}: an
    entry stays half-open until its traffic shows the handshake shape
    (originator → reply → originator again, see {!seen}), or until it
    is inserted as already-established (the post-crash re-track path —
    transport servers only hold live connections).
    Eviction at capacity prefers half-open entries, so flood state
    cannibalizes itself instead of the established flows the recovery
    story exists to protect. {!export}/{!import} preserve both the
    timestamps and the confirmation bit, so a filter restart does not
    resurrect half-dead entries as freshly-seen nor launder flood
    entries into established ones. *)

type proto = Ct_tcp | Ct_udp

type flow = {
  proto : proto;
  local_ip : Newt_net.Addr.Ipv4.t;
  local_port : int;
  remote_ip : Newt_net.Addr.Ipv4.t;
  remote_port : int;
}

type dir = [ `In | `Out ]

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] (default 65536) is a hard cap: inserting into a full
    table evicts — least-recently-seen half-open entries first,
    established flows only when no half-open entry remains. *)

val insert : t -> now:int -> ?dir:dir -> ?confirmed:bool -> flow -> unit
(** Track the flow (or refresh its last-seen time when already
    tracked). [dir] records the creating direction so later
    opposite-direction traffic confirms the entry; [confirmed] (default
    false) creates — or promotes — the entry as established outright,
    for flows re-tracked from a transport server's connection table. *)

val seen : t -> now:int -> ?dir:dir -> flow -> bool
(** Membership probe that refreshes the entry's last-seen time on a
    hit — the per-packet path: traffic keeps its flow's entry alive.
    [dir] drives confirmation: an entry is promoted when its
    originator speaks again {e after} a reply — the handshake shape
    (SYN, SYN-ACK, ACK). A lone reply is not enough, because an
    inbound flood SYN provokes an automatic RST/SYN-ACK; the third
    packet is the one a spoofed source can never send. *)

val mem : t -> flow -> bool
(** Pure membership, no timestamp refresh. *)

val last_seen : t -> flow -> int option

val confirmed : t -> flow -> bool option
(** Whether the tracked entry has been confirmed by two-way traffic
    ([None] when untracked). *)

val size : t -> int

val half_open_count : t -> int
(** How many tracked entries are still unconfirmed (O(n)). *)

val evicted_half_open : t -> int
(** Running count of capacity evictions that hit a half-open entry. *)

val evicted_established : t -> int
(** Running count of capacity evictions that had to take an
    established entry — nonzero only when the table filled up with
    confirmed flows. *)

val expire : t -> now:int -> ttl:int -> int
(** Drop every entry idle longer than [ttl] (i.e. [now - last_seen >
    ttl]); returns how many were dropped. The filter server runs this
    periodically from its event loop. *)

val export : t -> (flow * int * bool) list
(** All tracked flows with their last-seen times and confirmation bits
    (deterministic order). *)

val import : t -> (flow * int * bool) list -> unit
(** Replace the table's contents, preserving the given last-seen times
    and confirmation bits — so restored entries are as close to expiry
    as they were when exported. Respects the capacity cap. *)

val clear : t -> unit

val flow_of_packet : Rule.packet -> flow option
(** The tracking key of a packet ([None] for untrackable protocols).
    Outgoing packets are keyed (src=local); incoming ones are flipped so
    both directions of a flow share one entry. *)
