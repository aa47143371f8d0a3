#include "obs/phase_timer.h"

namespace altroute {
namespace obs {

namespace {

/// Room for a /route's laps (queue wait, two snapshot acquires, snap, four
/// engines and their renders, serialize), so recording one allocates nothing
/// after construction.
constexpr size_t kReservedLaps = 16;

void AddToPhase(std::vector<RequestProfile::Phase>& phases,
                std::string_view name, double seconds) {
  for (RequestProfile::Phase& p : phases) {
    if (p.name == name) {
      p.seconds += seconds;
      return;
    }
  }
  phases.push_back(RequestProfile::Phase{name, seconds});
}

}  // namespace

RequestProfile::RequestProfile() : epoch_(std::chrono::steady_clock::now()) {
  laps_.reserve(kReservedLaps);
  phases_.reserve(kReservedLaps);
}

double RequestProfile::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double RequestProfile::EndOpenLap(double now) {
  if (!open_) return 0.0;
  LapTime& last = laps_.back();
  last.seconds = now - last.start_s;
  AddToPhase(phases_, last.name, last.seconds);
  open_ = false;
  return last.seconds;
}

double RequestProfile::Lap(std::string_view name) {
  const double now = Now();
  const double ended_s = EndOpenLap(now);
  laps_.push_back({name, now, 0.0});
  open_ = true;
  return ended_s;
}

double RequestProfile::Stop() {
  if (!open_) return 0.0;
  end_s_ = Now();
  return EndOpenLap(end_s_);
}

void RequestProfile::RecordPreceding(std::string_view name, double seconds) {
  preceding_s_ += seconds;
  laps_.insert(laps_.begin(), {name, -seconds, seconds});
  AddToPhase(phases_, name, seconds);
}

double RequestProfile::PhaseSum() const {
  double sum = 0.0;
  for (const Phase& p : phases_) sum += p.seconds;
  return sum;
}

double RequestProfile::TotalSeconds() const {
  return preceding_s_ + (open_ ? Now() : end_s_);
}

double RequestProfile::UnattributedSeconds() const {
  return TotalSeconds() - PhaseSum();
}

}  // namespace obs
}  // namespace altroute
