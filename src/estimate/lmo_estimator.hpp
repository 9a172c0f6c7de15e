// LMO parameter estimation (paper Section IV, eqs. 6-12).
//
// Point-to-point experiments alone cannot identify the six parameters of
// the extended model, so the procedure combines:
//  * C(n,2) round-trips per probe size (empty and medium M), and
//  * 3*C(n,3) one-to-two experiments (i -> j,k with empty replies),
// solving a small linear system per triplet:
//
//   C_i  = (T_i(jk)(0) - max_x T_ix(0)) / 2                       (8)
//   L_ij = T_ij(0)/2 - C_i - C_j                                  (8)
//   t_i  = (T_i(jk)(M) - max_x (T_ix(0)+T_ix(M))/2 - 2 C_i) / M   (11)
//   1/b  = (T_ij(M)/2 - C_i - L_ij - C_j)/M - t_i - t_j           (11)
//
// and averaging each parameter over all triplets it appears in (eq. 12).
// Probe sizes are chosen medium and replies empty to dodge the scatter
// leap and the gather escalations. With `parallel` set, disjoint pairs and
// triplets run concurrently (single-switch property).
#pragma once

#include <array>

#include "core/lmo_model.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "models/pair_table.hpp"

namespace lmo::estimate {

class MeasurementStore;

struct LmoOptions {
  Bytes probe_size = 32 * 1024;  ///< medium: below leap/rendezvous regions
  bool parallel = true;
  bool redundancy_averaging = true;  ///< eq. (12); false: first triplet wins

  /// Resource tree of the platform. When set (non-empty), fit_lmo
  /// additionally aggregates the fitted pair L/1-over-beta into per-level
  /// LevelLinks (params.per_level), and estimate_lmo plans with
  /// topology-aware packing. estimate_lmo defaults it from
  /// Experimenter::topology() when left null. Must outlive the fit.
  const sim::Topology* topology = nullptr;
};

struct LmoReport {
  core::LmoParams params;
  int roundtrip_experiments = 0;
  int one_to_two_experiments = 0;
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;
};

// ---- The per-triplet step, shared by the exact and the sampled fit. ----

/// Measured round-trips of one triplet t, indexed by position in t:
/// t0[a][b] = T_{t[a] t[b]}(0) and tm[a][b] = T_{t[a] t[b]}(M), symmetric,
/// diagonal unused.
struct TripletRoundtrips {
  std::array<std::array<double, 3>, 3> t0{}, tm{};
};

/// Read the three pairs' round-trips of `t` from the store. Throws
/// lmo::Error naming the experiment on a missing value and the pair on a
/// non-finite one: the triplet systems difference and divide these, so a
/// NaN would silently poison every parameter it touches.
[[nodiscard]] TripletRoundtrips read_triplet_roundtrips(
    const MeasurementStore& store, const Triplet& t, Bytes m);

/// The six oriented one-to-two experiments of `t`: root t[0], t[1], t[2]
/// in turn, each as the empty probe (eq. 8) then the M probe (eq. 11).
/// The "far" child is sent last and received first, which puts the
/// root's serialized processing on the critical path exactly as the
/// equations assume. "Far" agrees with the max of the equation being
/// solved — argmax T_ix(0) for the empty probe, argmax T_ix(0) + T_ix(M)
/// for the M probe (the two differ when a processor pairs a slow CPU with
/// a fast link) — and ties resolve on node order. Derived from stored
/// round-trips, orientation is a pure function of the store.
[[nodiscard]] std::array<ExperimentKey, 6> triplet_one_to_two_keys(
    const Triplet& t, const TripletRoundtrips& rt, Bytes m);

/// One triplet's solution of eqs. (8) and (11), indexed by position in
/// the triplet: C/t per node, L/1-over-beta per pair (a < b only).
struct TripletSolution {
  std::array<double, 3> C{}, t{};
  std::array<std::array<double, 3>, 3> L{}, inv_beta{};
};

/// Solve eqs. (8) and (11) for triplet `t`, reading its six one-to-two
/// experiments from the store. Throws lmo::Error naming the experiment on
/// a non-finite one-to-two value. Unclamped: the fits average first
/// (eq. 12) and clamp the averages.
[[nodiscard]] TripletSolution solve_triplet(const MeasurementStore& store,
                                            const Triplet& t,
                                            const TripletRoundtrips& rt,
                                            Bytes m);

// ---- The exact fit: every triplet, averaged per node and per pair. ----

/// Stage 1 requirements: all round-trips T_ij(0), T_ij(M).
void plan_lmo_roundtrips(PlanBuilder& plan, int n, const LmoOptions& opts = {});

/// Stage 2 requirements: triplet_one_to_two_keys of every triplet.
/// Orientation derives from the measured round-trips, so the store must
/// already hold every stage-1 experiment.
void plan_lmo_one_to_two(PlanBuilder& plan, const MeasurementStore& store,
                         int n, const LmoOptions& opts = {});

/// solve_triplet over all C(n,3) triplets, averaged per node and per pair
/// (eq. 12), reading both experiment stages from the store. Pure and
/// bit-stable: orientations are recomputed from the stored round-trips,
/// so the same store always yields the same parameters.
[[nodiscard]] LmoReport fit_lmo(const MeasurementStore& store, int n,
                                const LmoOptions& opts = {});

/// Plan stage 1 → execute → plan stage 2 → execute → fit.
[[nodiscard]] LmoReport estimate_lmo(Experimenter& ex, MeasurementStore& store,
                                     const LmoOptions& opts = {});

/// Same, against a throwaway store.
[[nodiscard]] LmoReport estimate_lmo(Experimenter& ex,
                                     const LmoOptions& opts = {});

}  // namespace lmo::estimate
