"""Wire sizes of the operators dispatched from the host to PIM modules.

Every request becomes a small set of operators, mirroring the paper's
architecture (Figure 1): ``smxm`` (expand these frontier rows against
your local adjacency segment), ``mwait`` (return your partial result so
the host can reduce the answer matrix) and ``add`` / ``sub`` (apply a
batch of edge insertions / deletions to your segment).  What crosses the
CPU-PIM channel is a header plus fixed-size items, so these three
constants define the CPC traffic the phase driver
(:mod:`repro.engine.driver`) and the update path
(:mod:`repro.core.update_processor`) charge for dispatching them.
"""

#: Bytes to encode one frontier item (destination node id + query context).
BYTES_PER_FRONTIER_ITEM = 16
#: Bytes to encode one edge update (src, dst, label, opcode).
BYTES_PER_UPDATE_ITEM = 20
#: Fixed bytes of an operator header (opcode, counts, plan position).
OPERATOR_HEADER_BYTES = 32

