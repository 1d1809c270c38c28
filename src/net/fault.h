// Deterministic, seeded fault injection, decided on the sending side by the send pipeline
// both transports share (Transport::Send, net/transport.h). The plan assigns per-edge
// drop / delay / duplicate / reorder probabilities; every decision is a pure function of
// (seed, edge, per-edge send counter), so the same seed reproduces the same fault
// schedule regardless of thread interleaving or wire — each edge's messages are sent in
// program order by a single owner thread. This is what makes the protocol's failure
// paths reachable (and testable) at all: without it the in-process bus never loses
// anything.
#ifndef DETA_NET_FAULT_H_
#define DETA_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace deta::net {

// Per-message fault probabilities, each in [0, 1].
struct FaultRates {
  double drop = 0.0;       // message silently lost
  double duplicate = 0.0;  // delivered twice (same sequence tag — receiver dedups)
  double reorder = 0.0;    // held back and delivered after the edge's next message
  double delay = 0.0;      // sender blocked for FaultPlan::delay_ms before delivery

  bool any() const { return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0; }
};

// A targeted override: applies to messages matching |from|, |to|, and |type_prefix|,
// where an empty field matches everything. Lets tests fail one protocol phase — e.g.
// drop only "round.upload" from one party — without touching setup traffic.
struct EdgeFault {
  std::string from;
  std::string to;
  std::string type_prefix;
  FaultRates rates;
  // Fault budget: after this override has produced this many faulted messages, it stops
  // matching and later messages fall through to the next override or the defaults
  // (0 = unlimited). `{type_prefix: "kb.fetch", drop: 1.0, max_faults: 1}` expresses
  // "lose exactly the first key-broker fetch" — a burst fault — deterministically.
  int max_faults = 0;
};

// A process-crash fault: the named role kills itself at a deterministic point and stays
// dead until the job driver revives it from its last durable snapshot (src/persist/).
// For parties and aggregators |at_round| is the round whose begin/collect phase triggers
// the crash; for the key broker it counts distinct parties served (the broker has no
// round clock). Crash faults require checkpointing to be on — the driver enforces it.
struct CrashFault {
  std::string role;
  int at_round = 1;
};

struct FaultPlan {
  uint64_t seed = 0;
  FaultRates default_rates;          // applied to every non-immune edge
  std::vector<EdgeFault> overrides;  // first matching override wins over default_rates
  int delay_ms = 2;                  // sleep applied when a message is selected for delay
  // Endpoints whose traffic is never faulted, in either direction. The job driver puts
  // its evaluation observer here: the observer is measurement harness, not deployed
  // protocol fabric.
  std::set<std::string> immune;
  // Role crashes (distinct from message faults: these kill whole processes, not
  // messages, and are orchestrated by the job driver rather than the injector).
  std::vector<CrashFault> crashes;

  // True when any *message* fault can fire; crash faults do not flow through the
  // injector and are intentionally excluded.
  bool enabled() const;
  // Crash round configured for |role| (0 = this role never crashes).
  int CrashRoundFor(const std::string& role) const {
    for (const CrashFault& crash : crashes) {
      if (crash.role == role) {
        return crash.at_round;
      }
    }
    return 0;
  }
};

// What the injector decided for one message.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  bool delay = false;
};

// Stateful decision engine owned by the Transport (guarded by its send lock). Decisions consume
// one tick of the per-edge counter, so two injectors with the same plan produce identical
// schedules for identical per-edge send sequences.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Decides the fate of the next message sent from |from| to |to| with message |type|,
  // advancing the per-edge counter.
  FaultDecision Decide(const std::string& from, const std::string& to,
                       const std::string& type);

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::map<std::pair<std::string, std::string>, uint64_t> edge_counter_;
  std::vector<uint64_t> override_faults_;  // faults produced per override (max_faults)
};

}  // namespace deta::net

#endif  // DETA_NET_FAULT_H_
