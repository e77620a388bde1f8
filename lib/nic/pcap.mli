(** Pcap capture of simulated traffic.

    The paper's Figure 4 methodology: "We used tcpdump to capture the
    trace and Wireshark to analyze it. Using a single connection allows
    us to safely capture all packets to see all lost segments and
    retransmission." This module is that tcpdump: attach a capture to a
    {!Link} and every delivered frame is recorded with its simulated
    timestamp; {!save} writes a standard little-endian pcap file
    (linktype Ethernet) that real Wireshark opens. *)

type t

val create : unit -> t
(** An empty capture buffer (snaplen 65535). *)

val attach : t -> Link.t -> unit
(** Start capturing a link (both directions). A capture may observe
    several links. *)

val frames : t -> int

val to_bytes : t -> Bytes.t
(** The complete pcap file image (global header + records). *)

val save : t -> path:string -> unit
(** Write the capture to disk. *)
