// Batched structure-of-arrays multi-instance simulation.
//
// One compiled design, N independent instances in lock-step. The batched
// evaluator replays a sim::CompiledSystem's straight-line tapes over an
// instance-major structure-of-arrays slot store — slot s of lane l lives at
// `slots_[s * lanes + lane]`, so every tape instruction processes a
// contiguous vector of N lanes in one auto-vectorizable loop instead of N
// scheduler walks. This is the fleet-scale execution shape: parameter
// sweeps, Monte-Carlo stimulus, and fuzz batches become one cache-friendly
// kernel call.
//
// Semantics are cycle-exact per lane, bit-identical to running N separate
// CompiledSystem instances with the same stimulus. Lanes may diverge:
// per-lane pokes can put the lanes into different FSM states, dispatch
// opcodes, or data values, and the evaluator masks per-lane where the
// architecture demands it. The masking discipline is narrow by design:
//
//   * Tapes (guard / pre / main / input loads) always execute FULL-LANE,
//     unmasked. Every tape writes only its own private scratch slots and
//     its SFG's input slots, and within one cycle a lane's net values are
//     stable (each net is pushed at most once per lane per cycle), so
//     recomputing a not-yet-ready lane's scratch is harmless — it is
//     recomputed identically when that lane finally fires.
//   * Only net pushes, register commits, FSM state updates, and untimed
//     invocations are masked to the lanes that actually fire.
//
// Determinism contract (tested by tests/test_batch.cpp, fuzzed on every
// seed by the `batched` engine): lane count and lane position never change
// any instance's trace. Lane l of an L-lane batch produces exactly the
// trace a solo CompiledSystem produces.
//
// Untimed components' native closures are shared across lanes (there is
// one sched::UntimedComponent object), so batched execution requires
// stateless closures. Stateful closures (e.g. a RAM model) would leak one
// lane's history into another — use the structural/timed form of such
// designs for batched runs.
//
// Per-lane checkpointing: save_lane/restore_lane serialize ONE lane's
// architectural state in the versioned ckpt format (EngineKind::kBatched).
// A lane snapshot is bound to its lane index; restoring it into a
// different lane rejects with CKPT-005 (lane binding mismatch), so a
// checkpoint stream can never silently migrate an instance.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "opt/options.h"
#include "sched/run.h"
#include "sim/compiled.h"

namespace asicpp::batch {

class BatchedSystem {
 public:
  /// Compile `sched` once (via sim::CompiledSystem::compile, running the
  /// pass pipeline) and replicate its runtime state across `lanes`
  /// identical instances. Throws std::invalid_argument when lanes == 0.
  static BatchedSystem compile(const sched::CycleScheduler& sched,
                               unsigned lanes,
                               const opt::PassOptions& passes = {});

  /// Simulate one clock cycle for every lane. Throws sched::DeadlockError
  /// (SCHED-001 post-mortem naming the blocked components and lane) when
  /// any lane deadlocks combinationally.
  void cycle();

  /// Simulate per `opts`: cycle count, watchdogs, schedule mode, hooks —
  /// the unified entry point shared with the other engines. `profile` is
  /// accepted but inert. RunResult::firings counts per-lane component
  /// firings.
  RunResult run(const RunOptions& opts);

  unsigned lanes() const { return lanes_; }
  std::uint64_t cycles() const { return cycles_; }

  /// The underlying compiled image's optimizer statistics.
  const opt::PassStats& pass_stats() const { return img_.pass_stats(); }

  void set_schedule_mode(ScheduleMode m) { mode_ = m; }
  ScheduleMode schedule_mode() const { return mode_; }
  bool levelizable() const { return img_.levelizable(); }

  void attach_diagnostics(diag::DiagEngine& de) { diag_ = &de; }
  diag::DiagEngine& diagnostics() {
    return diag_ != nullptr ? *diag_ : own_diag_;
  }
  bool watchdog_tripped() const { return watchdog_tripped_; }

  /// Restore every lane's registers and FSM states to reset values.
  void reset();

  /// Last token value seen on net `name` in lane `lane`.
  double net_value(unsigned lane, const std::string& name) const;
  /// Current value of register `name` in lane `lane`.
  double reg_value(unsigned lane, const std::string& name) const;
  /// Override an unbound input signal in ONE lane (persists across
  /// cycles). This is how lanes diverge: per-lane stimulus.
  void poke(unsigned lane, const std::string& input_name, double v);
  /// Override an unbound input signal in every lane.
  void poke_all(const std::string& input_name, double v);

  // --- per-lane serialized checkpoint/restore (see ckpt/snapshot.h) ---

  /// IR content hash of the compiled image (shared by every lane).
  std::uint64_t state_hash() const { return img_.state_hash(); }

  /// Serialize lane `lane`'s architectural state (slots, net tokens, FSM
  /// states, untimed firing counters, per-lane stimulus) in the versioned
  /// ckpt format, bound to the lane index.
  void save_lane(unsigned lane, std::ostream& os) const;

  /// Restore a save_lane() snapshot into the SAME lane index. Throws
  /// ckpt::SnapshotError: CKPT-001 (wrong engine kind), CKPT-003 (other
  /// design), CKPT-004 (corrupt), CKPT-005 (snapshot bound to a different
  /// lane). On failure the lane is left exactly as it was. The global
  /// cycle counter adopts the snapshot position, so restore at matching
  /// positions (the diff_run ckpt-axis shape).
  void restore_lane(unsigned lane, std::istream& is);

  /// Bytes of live simulation data (image + all lane arrays).
  std::size_t footprint_bytes() const;

  /// Tape instructions retired, aggregated across lanes.
  std::uint64_t ops_retired() const { return ops_; }

 private:
  using Img = sim::CompiledSystem;
  using Kind = Img::Kind;

  BatchedSystem(Img img, unsigned lanes);

  double* lane_base(std::int32_t slot) {
    return slots_.data() + static_cast<std::size_t>(slot) * lanes_;
  }
  const double* lane_base(std::int32_t slot) const {
    return slots_.data() + static_cast<std::size_t>(slot) * lanes_;
  }
  double* net_base(std::int32_t net) {
    return lane_base(img_.net_slots_[static_cast<std::size_t>(net)]);
  }
  std::uint8_t* tok_base(std::int32_t net) {
    return net_token_.data() + static_cast<std::size_t>(net) * lanes_;
  }
  const std::uint8_t* tok_base(std::int32_t net) const {
    return net_token_.data() + static_cast<std::size_t>(net) * lanes_;
  }

  void exec_lanes(const sim::Tape& tape);
  bool lane_has_tokens(const Img::SfgCode& s, unsigned lane) const;
  void push_masked(const std::vector<Img::SfgCode::Push>& pushes,
                   const std::vector<unsigned>& group);
  void run_sfg_pre_lanes(std::int32_t sfg, const std::vector<unsigned>& group);
  void run_sfg_main_lanes(std::int32_t sfg, const std::vector<unsigned>& group);
  void commit_lanes(std::int32_t sfg, const std::vector<unsigned>& group);
  bool fire_lanes(std::int32_t ci);
  bool lane_done(std::int32_t ci, unsigned lane) const;
  bool lane_blocked(std::int32_t ci, unsigned lane) const;
  bool comp_done(std::int32_t ci) const;
  bool any_blocked() const;
  diag::Diagnostic deadlock_postmortem() const;
  void restore_lane_impl(unsigned lane, std::istream& is);

  Img img_;
  unsigned lanes_ = 1;

  // SoA runtime state: outer index is the image's slot/net/comp index,
  // lanes contiguous and innermost.
  std::vector<double> slots_;
  std::vector<std::uint8_t> net_token_;
  std::vector<std::uint8_t> fired_;     ///< comps x lanes
  std::vector<std::int32_t> pending_;   ///< comps x lanes, transition idx
  std::vector<std::int32_t> selected_;  ///< comps x lanes, sfg id
  std::vector<std::int32_t> state_;     ///< comps x lanes, FSM state
  std::vector<double> refresh_vals_;    ///< refresh x lanes, per-lane pokes

  std::vector<unsigned> all_lanes_;
  // Reusable grouping scratch, so steady-state cycles allocate nothing.
  std::vector<unsigned> group_;
  std::vector<unsigned> ready_;
  std::vector<std::uint8_t> grouped_;

  std::uint64_t cycles_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t fired_lanes_total_ = 0;
  std::uint64_t retry_passes_total_ = 0;
  std::uint64_t levelized_cycles_total_ = 0;
  ScheduleMode mode_ = ScheduleMode::kAuto;
  diag::DiagEngine* diag_ = nullptr;
  diag::DiagEngine own_diag_;
  bool watchdog_tripped_ = false;
};

}  // namespace asicpp::batch
