(** Executable model of the paper's Table 1: which transport
    configurations provide which in-network-computing requirements.

    Each verdict is derived from structural properties of the
    transport (stream vs message orientation, termination, ordering
    constraints, feedback richness, provenance visibility) so the table
    is checkable by tests rather than a copied bitmap. *)

type transport =
  | Tcp_passthrough_many_rpf
  | Tcp_passthrough_one_rpf
  | Tcp_termination_many_rpf
  | Tcp_termination_one_rpf
  | Dctcp
  | Udp
  | Quic
  | Mptcp
  | Swift
  | Rdma_rc
  | Rdma_uc
  | Rdma_ud
  | Mtp

type requirement =
  | Data_mutation
  | Low_buffering_and_computation
  | Inter_message_independence
  | Multi_resource_multi_algorithm_cc
  | Multi_entity_isolation

type verdict = Yes | No | Unclear

(** Structural properties a transport either has or lacks; the five
    requirement verdicts are derived from these. *)
type properties = {
  byte_stream : bool;  (** Sequence numbers count bytes of a stream. *)
  terminated_in_network : bool;  (** Device runs full stack + buffers. *)
  many_requests_per_flow : bool;
  in_order_delivery_required : bool;
  per_message_boundaries : bool;  (** Network can see message framing. *)
  independent_streams : bool;
      (** Multiplexes units with no transport-level ordering between
          them (QUIC streams, MPTCP subflows, MTP messages). *)
  needs_reorder_buffering : bool;
      (** Receivers/devices must hold large reorder buffers (MPTCP's
          cross-subflow reassembly). *)
  switch_state_required : bool;
      (** Depends on per-switch configuration/state (DCTCP's tuned AQM
          marking). *)
  pluggable_cc : bool;
      (** The congestion-control algorithm is replaceable rather than
          pinned by the protocol. *)
  multipath_feedback : bool;  (** Distinguishes paths / resources. *)
  multi_bit_feedback : bool;  (** Richer than a single mark bit. *)
  provenance_visible : bool;  (** Entity/TC identifiable per packet. *)
  congestion_control : bool;
}

val supports : transport -> requirement -> verdict

val all_requirements : requirement list

val transport_name : transport -> string

val requirement_name : requirement -> string

val verdict_symbol : verdict -> string

val table : unit -> Stats.Table.t
(** The paper's Table 1, extended with the MTP row. *)
