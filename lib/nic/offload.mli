(** NIC offload engines: checksum finalization and TCP segmentation.

    These are the hardware features the paper's heavily-modified
    PRO/1000 driver exposes to lwIP (Section V-A): "virtually all
    gigabit network adapters provide checksum offloading and TCP
    segmentation offloading (TSO - NIC breaks one oversized TCP segment
    into small ones)". Both operate on complete Ethernet frames (as the
    device sees them after DMA gather). *)

val finalize_l4_checksum : Bytes.t -> bool
(** Complete, in place, a partial L4 checksum left by the transport
    layer ({!Newt_net.Tcp_wire.encode} with [~partial_csum:true]).
    Returns [false] when the frame is not IPv4 TCP/UDP, or when its IP
    total length does not cover the L4 checksum field or overruns the
    frame. *)

val tso_split : Bytes.t -> mss:int -> Bytes.t list
(** Split an oversized IPv4/TCP frame into MTU-sized frames: sequence
    numbers advance, IP lengths/idents are rewritten, FIN/PSH are kept
    only on the last segment, and both checksums are recomputed per
    segment. A frame whose TCP payload already fits [mss] (or that is
    not TCP) is returned unchanged as a single element.

    The input frame's own L4 checksum may be partial; it is ignored and
    recomputed. *)
