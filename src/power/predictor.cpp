#include "power/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcap::power {

namespace {

constexpr double kPi = 3.14159265358979323846;

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

void PredictionParams::validate() const {
  require(kind == "ewma" || kind == "fft",
          "prediction.kind must be \"ewma\" or \"fft\"");
  require(horizon_cycles >= 1, "prediction.horizon_cycles must be >= 1");
  require(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
          "prediction.ewma_alpha must be in (0, 1]");
  require(ewma_beta > 0.0 && ewma_beta <= 1.0,
          "prediction.ewma_beta must be in (0, 1]");
  require(window_cycles >= 8, "prediction.window_cycles must be >= 8");
  require(refresh_cycles >= 0, "prediction.refresh_cycles must be >= 0");
}

// -- EwmaTrendPredictor --------------------------------------------------

EwmaTrendPredictor::EwmaTrendPredictor(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {}

void EwmaTrendPredictor::observe(Watts system_power) {
  const double x = system_power.value();
  if (seen_ == 0) {
    level_ = x;
  } else if (seen_ == 1) {
    // Classic Holt initialisation: the first trend estimate is the first
    // observed difference, not a smoothed zero that would lag every ramp.
    trend_ = x - level_;
    level_ = x;
  } else {
    const double prev_level = level_;
    level_ = alpha_ * x + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  }
  ++seen_;
}

std::optional<Watts> EwmaTrendPredictor::forecast(std::int64_t h) const {
  if (seen_ < 2) return std::nullopt;
  return Watts{std::max(0.0, level_ + static_cast<double>(h) * trend_)};
}

std::vector<double> EwmaTrendPredictor::checkpoint_state() const {
  return {level_, trend_, static_cast<double>(seen_)};
}

void EwmaTrendPredictor::restore_state(const std::vector<double>& state) {
  require(state.size() == 3, "ewma predictor state must have 3 entries");
  level_ = state[0];
  trend_ = state[1];
  seen_ = static_cast<std::int64_t>(state[2]);
  require(seen_ >= 0, "ewma predictor sample count must be >= 0");
}

// -- PeriodicityPredictor ------------------------------------------------

PeriodicityPredictor::PeriodicityPredictor(std::int64_t window,
                                           double ewma_alpha,
                                           double ewma_beta)
    : window_(window), fallback_(ewma_alpha, ewma_beta) {
  require(window_ >= 8, "periodicity window must be >= 8");
  ring_.assign(static_cast<std::size_t>(window_), 0.0);
}

void PeriodicityPredictor::observe(Watts system_power) {
  ring_[static_cast<std::size_t>(next_)] = system_power.value();
  next_ = (next_ + 1) % window_;
  ++count_;
  fallback_.observe(system_power);
}

void PeriodicityPredictor::refresh() {
  if (count_ < window_) return;
  const auto n = static_cast<std::size_t>(window_);
  // Unroll the ring into chronological order: x[0] is the oldest sample
  // in the window, x[n-1] the newest (observed at count_ - 1).
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = ring_[static_cast<std::size_t>((next_ + static_cast<std::int64_t>(
                                                       i)) %
                                          window_)];
  }
  // Least-squares line through the window: x[t] ≈ mean + trend·(t - t̄).
  const double nd = static_cast<double>(n);
  const double t_bar = (nd - 1.0) / 2.0;
  double sum = 0.0;
  for (double v : x) sum += v;
  const double mean = sum / nd;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dt = static_cast<double>(i) - t_bar;
    sxy += dt * (x[i] - mean);
    sxx += dt * dt;
  }
  const double trend = sxx > 0.0 ? sxy / sxx : 0.0;
  // Dominant DFT bin of the detrended residual. Bin k corresponds to
  // period n/k samples; k ranges over [1, n/2] — anything slower than the
  // window is the trend's job, anything faster than 2 samples aliases.
  double best_power = 0.0;
  double best_re = 0.0;
  double best_im = 0.0;
  std::size_t best_k = 0;
  for (std::size_t k = 1; k <= n / 2; ++k) {
    double re = 0.0;
    double im = 0.0;
    const double w = 2.0 * kPi * static_cast<double>(k) / nd;
    for (std::size_t i = 0; i < n; ++i) {
      const double r =
          x[i] - mean - trend * (static_cast<double>(i) - t_bar);
      const double a = w * static_cast<double>(i);
      re += r * std::cos(a);
      im -= r * std::sin(a);
    }
    const double p = re * re + im * im;
    if (p > best_power) {
      best_power = p;
      best_re = re;
      best_im = im;
      best_k = k;
    }
  }
  mean_ = mean;
  trend_ = trend;
  fit_at_ = count_;
  if (best_k == 0) {
    // Flat residual (constant input): pure mean + trend model.
    amp_ = 0.0;
    phase_ = 0.0;
    period_ = 0.0;
  } else {
    // X_k = Σ r[i]·e^{-jwi}; the bin's contribution to r[i] is
    // (2/n)·|X_k|·cos(w·i + arg X_k).
    amp_ = 2.0 / nd * std::sqrt(best_power);
    phase_ = std::atan2(best_im, best_re);
    period_ = nd / static_cast<double>(best_k);
  }
  model_valid_ = true;
}

std::optional<Watts> PeriodicityPredictor::forecast(std::int64_t h) const {
  if (!model_valid_) return fallback_.forecast(h);
  // The window used at fit time covered observation indices
  // [fit_at_ - window_, fit_at_); its local index i maps to observation
  // fit_at_ - window_ + i. The forecast target is observation
  // count_ - 1 + h, i.e. local index:
  const double i = static_cast<double>(count_ - 1 + h - (fit_at_ - window_));
  const double t_bar = (static_cast<double>(window_) - 1.0) / 2.0;
  double v = mean_ + trend_ * (i - t_bar);
  if (period_ > 0.0) {
    v += amp_ * std::cos(2.0 * kPi * i / period_ + phase_);
  }
  return Watts{std::max(0.0, v)};
}

std::vector<double> PeriodicityPredictor::checkpoint_state() const {
  std::vector<double> s;
  s.reserve(ring_.size() + 11);
  s.push_back(static_cast<double>(window_));
  s.push_back(static_cast<double>(next_));
  s.push_back(static_cast<double>(count_));
  s.push_back(model_valid_ ? 1.0 : 0.0);
  s.push_back(mean_);
  s.push_back(trend_);
  s.push_back(amp_);
  s.push_back(phase_);
  s.push_back(period_);
  s.push_back(static_cast<double>(fit_at_));
  for (double fb : fallback_.checkpoint_state()) s.push_back(fb);
  s.insert(s.end(), ring_.begin(), ring_.end());
  return s;
}

void PeriodicityPredictor::restore_state(const std::vector<double>& state) {
  const std::size_t header = 13;  // 10 model doubles + 3 fallback doubles
  require(state.size() == header + ring_.size(),
          "periodicity predictor state has the wrong length");
  require(static_cast<std::int64_t>(state[0]) == window_,
          "periodicity predictor window mismatch");
  next_ = static_cast<std::int64_t>(state[1]);
  count_ = static_cast<std::int64_t>(state[2]);
  require(next_ >= 0 && next_ < window_ && count_ >= 0,
          "periodicity predictor cursor out of range");
  model_valid_ = state[3] != 0.0;
  mean_ = state[4];
  trend_ = state[5];
  amp_ = state[6];
  phase_ = state[7];
  period_ = state[8];
  fit_at_ = static_cast<std::int64_t>(state[9]);
  fallback_.restore_state({state[10], state[11], state[12]});
  std::copy(state.begin() + static_cast<std::ptrdiff_t>(header), state.end(),
            ring_.begin());
}

PredictorPtr make_predictor(const PredictionParams& params) {
  params.validate();
  if (params.kind == "ewma") {
    return std::make_unique<EwmaTrendPredictor>(params.ewma_alpha,
                                                params.ewma_beta);
  }
  return std::make_unique<PeriodicityPredictor>(
      params.window_cycles, params.ewma_alpha, params.ewma_beta);
}

// -- ForecastScorer ------------------------------------------------------

void ForecastScorer::reset(std::int64_t horizon) {
  horizon_ = std::max<std::int64_t>(1, horizon);
  pending_.assign(static_cast<std::size_t>(horizon_), 0.0);
  valid_.assign(static_cast<std::size_t>(horizon_), 0);
  pos_ = 0;
  filled_ = 0;
  overshoots_ = 0;
  misses_ = 0;
  scored_ = 0;
}

std::optional<ForecastScorer::Score> ForecastScorer::step(
    double realized, double p_low, const std::optional<double>& forecast) {
  if (horizon_ == 0) reset(1);
  std::optional<Score> out;
  // The slot about to be overwritten holds the forecast made h cycles
  // ago whose target is the present cycle.
  if (filled_ >= horizon_ && valid_[static_cast<std::size_t>(pos_)] != 0) {
    const double predicted = pending_[static_cast<std::size_t>(pos_)];
    Score s;
    s.abs_error = std::abs(predicted - realized);
    s.overshoot = predicted >= p_low && realized < p_low;
    s.miss = predicted < p_low && realized >= p_low;
    if (s.overshoot) ++overshoots_;
    if (s.miss) ++misses_;
    ++scored_;
    out = s;
  }
  pending_[static_cast<std::size_t>(pos_)] = forecast.value_or(0.0);
  valid_[static_cast<std::size_t>(pos_)] = forecast.has_value() ? 1 : 0;
  pos_ = (pos_ + 1) % horizon_;
  if (filled_ < horizon_) ++filled_;
  return out;
}

// -- RootForecaster ------------------------------------------------------

RootForecaster::RootForecaster(const PredictionParams& params,
                               std::int64_t adjust_period_cycles) {
  if (!params.enabled) return;
  predictor_ = make_predictor(params);
  horizon_cycles_ = params.horizon_cycles;
  refresh_cycles_ =
      params.refresh_cycles > 0 ? params.refresh_cycles : adjust_period_cycles;
  scorer_.reset(horizon_cycles_);
}

std::optional<ForecastScorer::Score> RootForecaster::observe(Watts measured,
                                                             Watts p_low) {
  if (!predictor_) return std::nullopt;
  predictor_->observe(measured);
  ++observations_;
  if (auto* periodic = dynamic_cast<PeriodicityPredictor*>(predictor_.get());
      periodic != nullptr && observations_ % refresh_cycles_ == 0) {
    // The only super-O(1) model work, scheduled on the learner's t_p
    // cadence — never on the per-cycle hot path.
    periodic->refresh();
  }
  forecast_ = predictor_->forecast(horizon_cycles_);
  std::optional<double> raw;
  if (forecast_) raw = forecast_->value();
  return scorer_.step(measured.value(), p_low.value(), raw);
}

std::vector<double> RootForecaster::checkpoint_state() const {
  if (!predictor_) return {};
  std::vector<double> state{static_cast<double>(observations_)};
  const std::vector<double> model = predictor_->checkpoint_state();
  state.insert(state.end(), model.begin(), model.end());
  return state;
}

void RootForecaster::restore_state(const std::vector<double>& state) {
  if (!predictor_ || state.empty()) return;
  observations_ = static_cast<std::int64_t>(state[0]);
  predictor_->restore_state(std::vector<double>(state.begin() + 1, state.end()));
  forecast_ = predictor_->forecast(horizon_cycles_);
}

}  // namespace pcap::power
