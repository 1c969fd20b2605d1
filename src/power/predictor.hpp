// System-power forecasting (ROADMAP "Predictive capping").
//
// Every reactive policy pays at least one cycle of overspend on a demand
// ramp: the meter has to cross P_L before Algorithm 1 reacts. A
// PowerPredictor turns the per-cycle facility meter stream into a
// forecast h control cycles ahead; the manager stamps that forecast into
// the PolicyContext and the forecast-driven policies (PI-C, PRED-C) act
// on it before the threshold is crossed.
//
// Both predictors are O(1) per observe(). The periodicity predictor
// defers all spectrum work to a refresh that runs on the threshold
// learner's t_p cadence — never on the per-cycle hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace pcap::power {

struct PredictionParams {
  /// Off by default: with prediction disabled the control plane is
  /// byte-for-byte what it was before the predictor existed.
  bool enabled = false;
  /// "ewma" — Holt double exponential smoothing (level + trend);
  /// "fft"  — windowed periodicity model (mean + trend + dominant
  ///          harmonic), refreshed off the hot path.
  std::string kind = "ewma";
  /// Forecast horizon h: the policies act on the power expected this many
  /// control cycles ahead.
  std::int64_t horizon_cycles = 5;
  double ewma_alpha = 0.25;  ///< level smoothing weight
  double ewma_beta = 0.08;   ///< trend smoothing weight
  /// Periodicity window W: the ring of recent meter readings the spectrum
  /// refresh analyses. Power of two not required (plain DFT bins).
  std::int64_t window_cycles = 256;
  /// Spectrum refresh period; 0 = the manager substitutes the threshold
  /// learner's adjust period (t_p), the cadence the ISSUE prescribes.
  std::int64_t refresh_cycles = 0;

  void validate() const;
};

/// Incremental one-step-ahead … h-step-ahead forecaster over the facility
/// meter stream. observe() is fed exactly one reading per live control
/// cycle (dead/outage cycles observe nothing, exactly like the threshold
/// learner), so forecasts depend only on the meter sequence — never on
/// worker counts or context mode.
class PowerPredictor {
 public:
  virtual ~PowerPredictor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Feeds one control cycle's meter reading. O(1) amortised; any
  /// heavier model refresh must be scheduled on a t_p-style cadence.
  virtual void observe(Watts system_power) = 0;

  /// Forecast h cycles ahead. Returns nullopt until the model has seen
  /// enough samples to say anything (callers fall back to reactive
  /// behaviour). Never negative.
  [[nodiscard]] virtual std::optional<Watts> forecast(
      std::int64_t h) const = 0;

  /// Full model state as a flat double vector for warm restart; a
  /// restored predictor continues bit-identically. The layout is private
  /// to each implementation — restore_state() rejects a vector it did not
  /// produce.
  [[nodiscard]] virtual std::vector<double> checkpoint_state() const = 0;
  virtual void restore_state(const std::vector<double>& state) = 0;
};

using PredictorPtr = std::unique_ptr<PowerPredictor>;

/// Holt's double exponential smoothing: level l and trend b, forecast
/// l + h·b. Two multiplies per observe.
class EwmaTrendPredictor final : public PowerPredictor {
 public:
  EwmaTrendPredictor(double alpha, double beta);

  [[nodiscard]] std::string name() const override { return "ewma"; }
  void observe(Watts system_power) override;
  [[nodiscard]] std::optional<Watts> forecast(std::int64_t h) const override;
  [[nodiscard]] std::vector<double> checkpoint_state() const override;
  void restore_state(const std::vector<double>& state) override;

 private:
  double alpha_;
  double beta_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::int64_t seen_ = 0;
};

/// Windowed periodicity model (flux-power-monitor's fft_predictor idea):
/// keep the last W meter readings in a ring, and on every refresh fit
/// mean + linear trend, then scan the DFT bins of the detrended residual
/// for the dominant period. forecast(h) extrapolates trend + harmonic.
/// observe() is a ring store; the O(W²) bin scan runs only in refresh(),
/// which the manager calls on the learner's t_p cadence.
class PeriodicityPredictor final : public PowerPredictor {
 public:
  PeriodicityPredictor(std::int64_t window, double ewma_alpha,
                       double ewma_beta);

  [[nodiscard]] std::string name() const override { return "fft"; }
  void observe(Watts system_power) override;
  [[nodiscard]] std::optional<Watts> forecast(std::int64_t h) const override;
  [[nodiscard]] std::vector<double> checkpoint_state() const override;
  void restore_state(const std::vector<double>& state) override;

  /// Refits mean/trend/dominant-harmonic from the current window. Called
  /// by the manager every refresh_cycles; cheap to call early (it no-ops
  /// until the window has filled once).
  void refresh();

  /// True once refresh() has produced a usable spectral model.
  [[nodiscard]] bool model_valid() const { return model_valid_; }

 private:
  std::int64_t window_;
  /// Until the first window fills (and between fills and refreshes), the
  /// harmonic model is not trustworthy; a Holt fallback keeps forecasts
  /// available from the second sample on.
  EwmaTrendPredictor fallback_;
  std::vector<double> ring_;
  std::int64_t next_ = 0;   ///< ring write cursor
  std::int64_t count_ = 0;  ///< samples observed (lifetime)
  // Fitted model, valid while model_valid_: x(t) ≈ mean + trend·(t - t0)
  // + amp·cos(2π(t - t0)/period + phase), t in observation counts.
  bool model_valid_ = false;
  double mean_ = 0.0;
  double trend_ = 0.0;
  double amp_ = 0.0;
  double phase_ = 0.0;
  double period_ = 0.0;
  std::int64_t fit_at_ = 0;  ///< count_ when the model was fitted
};

/// Builds the predictor named by params.kind ("ewma" | "fft"); throws
/// std::invalid_argument on an unknown kind.
PredictorPtr make_predictor(const PredictionParams& params);

/// Rolling forecast accuracy bookkeeping for the pcap_predictor_* series.
/// Each cycle the manager hands in the forecast just made for cycle t+h
/// and the power realised NOW; the scorer matches the realised value
/// against the forecast made h cycles ago and classifies threshold
/// calls: an overshoot is a false alarm (predicted ≥ P_L, realised
/// < P_L), a miss is a ramp the forecast did not see coming. Process-
/// scoped like the other observability counters — not checkpointed.
class ForecastScorer {
 public:
  void reset(std::int64_t horizon);

  struct Score {
    double abs_error = 0.0;
    bool overshoot = false;
    bool miss = false;
  };

  /// `realized` is this cycle's meter reading, `p_low` the current lower
  /// threshold, `forecast` the (possibly absent) forecast for h cycles
  /// from now. Returns the score of the forecast that targeted THIS
  /// cycle, once the pipeline is full.
  std::optional<Score> step(double realized, double p_low,
                            const std::optional<double>& forecast);

  [[nodiscard]] std::uint64_t overshoots() const { return overshoots_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t scored() const { return scored_; }

 private:
  std::vector<double> pending_;      ///< ring: forecast for cycle slot
  std::vector<std::uint8_t> valid_;  ///< ring: slot holds a real forecast
  std::int64_t horizon_ = 0;
  std::int64_t pos_ = 0;
  std::int64_t filled_ = 0;
  std::uint64_t overshoots_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t scored_ = 0;
};

/// The forecasting a capping control plane's root owns — the flat
/// manager and the zone tree alike: the predictor, its spectrum refresh
/// cadence, this cycle's forecast and the accuracy scorer. Inert (no
/// predictor, never a forecast) when the params are disabled.
class RootForecaster {
 public:
  /// refresh_cycles == 0 resolves to `adjust_period_cycles` (the
  /// threshold learner's t_p).
  RootForecaster(const PredictionParams& params,
                 std::int64_t adjust_period_cycles);

  /// One live cycle: model update, spectrum refresh when due, a fresh
  /// forecast, and scoring against `p_low`; returns the score of the
  /// forecast that targeted this cycle. Dead cycles skip it — a dead
  /// controller reads no meter, so the window freezes like the learner's.
  std::optional<ForecastScorer::Score> observe(Watts measured, Watts p_low);

  /// Nullptr when prediction is disabled.
  [[nodiscard]] const PowerPredictor* predictor() const {
    return predictor_.get();
  }
  /// This cycle's forecast, horizon cycles ahead (empty while warming up
  /// or without a predictor).
  [[nodiscard]] std::optional<Watts> current_forecast() const {
    return forecast_;
  }
  [[nodiscard]] const ForecastScorer& forecast_scorer() const {
    return scorer_;
  }

  /// Warm-restart image: the observation count (keeping the refresh
  /// cadence phase-aligned) in front of the model state; empty without a
  /// predictor. The scorer is process-scoped and not part of it.
  [[nodiscard]] std::vector<double> checkpoint_state() const;
  /// Restores an image and re-derives the forecast; an empty image is a
  /// no-op.
  void restore_state(const std::vector<double>& state);

 private:
  PredictorPtr predictor_;
  ForecastScorer scorer_;
  std::optional<Watts> forecast_;
  std::int64_t horizon_cycles_ = 0;
  std::int64_t refresh_cycles_ = 0;
  std::int64_t observations_ = 0;
};

}  // namespace pcap::power
