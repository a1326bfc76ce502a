// The Simulator: drives an engine for K rounds under a FailureModel,
// fanning events out to Observers. Per round:
//
//   1. failure_model.apply(sys)   — environment fail/recover transitions
//   2. sys.update()               — the protocol's atomic round
//   3. observer.on_round(...)     — instrumentation
//
// (Intermediate-phase callbacks are forwarded through the engine's
// PhaseHook.)
//
// One class template serves every engine — System, chunk::ChunkedSystem
// and MessageSystem — through the surface they share: update() returning
// RoundEvents, set_phase_hook firing at the four UpdatePhase points, and
// the fail/recover transitions the FailureModel drives. `Simulator` is
// the System instantiation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "sim/observers.hpp"

namespace cellflow {

template <class Engine>
class BasicSimulator {
 public:
  /// Non-owning: the engine and FailureModel must outlive the Simulator.
  BasicSimulator(Engine& sys, BasicFailureModel<Engine>& failures)
      : sys_(sys), failures_(failures) {
    sys_.set_phase_hook([this](const Engine& s, UpdatePhase phase) {
      for (BasicObserver<Engine>* o : observers_) o->on_phase(s, phase);
    });
  }
  ~BasicSimulator() { sys_.set_phase_hook(nullptr); }

  BasicSimulator(const BasicSimulator&) = delete;
  BasicSimulator& operator=(const BasicSimulator&) = delete;

  /// Attaches an observer (non-owning; must outlive the Simulator's runs).
  void add_observer(BasicObserver<Engine>& obs) {
    observers_.push_back(&obs);
  }

  /// Executes exactly one round.
  void step() {
    failures_.apply(sys_);
    const RoundEvents& ev = sys_.update();
    for (BasicObserver<Engine>* o : observers_) o->on_round(sys_, ev);
  }

  /// Executes `rounds` rounds, then notifies observers' on_finish.
  void run(std::uint64_t rounds) {
    for (std::uint64_t k = 0; k < rounds; ++k) step();
    finish();
  }

  /// Notifies observers' on_finish. run()/run_until() call this
  /// themselves; a driver stepping manually (e.g. tools/cellflow_sim)
  /// calls it once after its loop so end-of-run observers (final JSONL
  /// snapshot, …) still fire.
  void finish() {
    for (BasicObserver<Engine>* o : observers_) o->on_finish(sys_);
  }

  /// Runs until `predicate(sys)` is true after a round, or `max_rounds`
  /// elapse. Returns true iff the predicate fired. on_finish is notified
  /// either way.
  template <typename Pred>
  bool run_until(Pred&& predicate, std::uint64_t max_rounds) {
    for (std::uint64_t k = 0; k < max_rounds; ++k) {
      step();
      if (predicate(static_cast<const Engine&>(sys_))) {
        finish();
        return true;
      }
    }
    finish();
    return false;
  }

  /// Forward to the engine's observability attach points (DESIGN.md §7),
  /// where it has them.
  void set_metrics(obs::MetricsRegistry* registry) {
    sys_.set_metrics(registry);
  }
  void set_profiler(obs::PhaseProfiler* profiler) {
    sys_.set_profiler(profiler);
  }
  void set_telemetry(obs::EngineTelemetry* telemetry) {
    sys_.set_telemetry(telemetry);
  }

 private:
  Engine& sys_;
  BasicFailureModel<Engine>& failures_;
  std::vector<BasicObserver<Engine>*> observers_;
};

using Simulator = BasicSimulator<System>;

}  // namespace cellflow
