#include "src/sim/network.h"

#include <utility>

#include "src/sim/fault.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

// The delivery closure (sink reference + Message + arrival time) must fit
// the event record's inline buffer, or every delivery falls back to a heap
// box. Trips when someone grows Message past the budget.
static_assert(sizeof(Message) + sizeof(void*) + sizeof(Time) <=
                  InlineFn::kCapacity,
              "delivery closure no longer fits the inline event buffer; "
              "shrink Message or raise InlineFn::kCapacity");

Network::Network(Engine& engine, const CostModel& costs, int nnodes)
    : engine_(engine),
      costs_(costs),
      tx_(nnodes),
      deliver_(nnodes),
      counters_(nnodes) {}

Time Network::min_link_latency() const { return costs_.wire_latency; }

void Network::attach(int node, DeliverFn deliver) {
  FGDSM_ASSERT(node >= 0 && node < static_cast<int>(deliver_.size()));
  deliver_[node] = std::move(deliver);
}

Time Network::tx_time(std::int64_t payload_bytes) const {
  return costs_.bytes_time(payload_bytes + costs_.msg_header_bytes);
}

Time Network::send(Time earliest, Message msg) {
  FGDSM_ASSERT(msg.src >= 0 && msg.src < static_cast<int>(tx_.size()));
  FGDSM_ASSERT_MSG(msg.dst >= 0 && msg.dst < static_cast<int>(tx_.size()),
                   "bad destination " << msg.dst);
  if (epoch_stamp_ != nullptr) msg.epoch = *epoch_stamp_;
  const std::int64_t bytes = msg.size_bytes(costs_.msg_header_bytes);
  TxCounters& acct = counters_[msg.src];
  ++acct.messages;
  acct.bytes += static_cast<std::uint64_t>(bytes);

  // Sender-side: serialization onto the wire occupies the transmit path.
  // (Message composition cpu time is charged by the caller.)
  const Time inject_end = tx_[msg.src].acquire(
      earliest,
      costs_.bytes_time(static_cast<std::int64_t>(msg.payload.size()) +
                        costs_.msg_header_bytes));

  Time arrival = msg.dst == msg.src
                     ? inject_end  // loopback: no wire traversal
                     : inject_end + costs_.wire_latency;

  FaultInjector::Decision verdict;
  if (fault_ != nullptr && msg.dst != msg.src) {
    // The injector shards its counters by source node (it holds no engine):
    // only the source's partition may draw.
    FGDSM_DCHECK(engine_.partition_of_node(msg.src) ==
                 engine_.current_partition_id());
    verdict = fault_->decide(msg.src, msg.dst);
    if (verdict.drop) {
      // The wire ate it: the sender still paid injection, nothing arrives.
      return inject_end;
    }
    arrival += verdict.extra_delay;
  }

  // The message rides inside the event record itself (InlineFn's buffer is
  // sized for exactly this closure), so delivery costs no heap allocation.
  // Delivery is scheduled into the DESTINATION node's partition: from the
  // sender's drain this buffers into the outbox for the deterministic
  // barrier merge (arrival >= window end, by the wire-latency lookahead).
  const int dst = msg.dst;
  DeliverFn& sink = deliver_[dst];
  FGDSM_ASSERT_MSG(sink, "no delivery sink attached for node " << dst);
  if (verdict.duplicate) {
    // A second, independent copy arrives later; the channel's duplicate
    // suppression discards whichever copy loses the race.
    const Time dup_arrival = arrival + verdict.dup_delay;
    engine_.schedule_node(dst, dup_arrival,
                          [&sink, m = Message(msg), dup_arrival]() mutable {
                            sink(std::move(m), dup_arrival);
                          });
  }
  engine_.schedule_node(dst, arrival,
                        [&sink, m = std::move(msg), arrival]() mutable {
                          sink(std::move(m), arrival);
                        });
  return inject_end;
}

}  // namespace fgdsm::sim
