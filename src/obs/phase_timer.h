// Per-request performance attribution: a RequestProfile records one request
// as an ordered list of laps on one steady clock (queue wait, snapshot
// acquire, snap-to-graph, one lap per engine, result rendering, JSON
// serialization), so a latency regression names the layer that regressed
// instead of only "the request got slower".
//
// Lap(name) ends the open lap at the instant it opens the next, so
// consecutive laps tile the request with nothing between them:
//   RequestProfile profile;
//   profile.RecordPreceding("queue_wait", waited_s);  // measured elsewhere
//   profile.Lap("snap");
//   ... snap ...
//   profile.Lap("engine:penalty");  // "snap" ends here
//   ... generate ...
//   profile.Stop();                 // "engine:penalty" ends here
//
// The request's total runs from construction to the end of the last lap,
// plus any preceding time. Whatever part of it lies in no lap (before the
// first lap, or between a Stop() and the next Lap()) is the explicit phase
// `unattributed`, so the phases, that one included, sum to the total.
//
// Lap names are not copied: they must outlive the profile (string literals,
// or names their owner builds once). Laps sharing a name sum into one phase,
// so a step that runs once per engine ("render") reports one phase entry.
#pragma once

#include <chrono>
#include <string_view>
#include <vector>

namespace altroute {
namespace obs {

/// The lap list of one request. Not thread-safe (one request is processed on
/// one thread; create one profile per request).
class RequestProfile {
 public:
  struct LapTime {
    std::string_view name;
    /// Seconds since construction at which the lap opened; negative for a
    /// preceding lap.
    double start_s = 0.0;
    /// 0 while the lap is open.
    double seconds = 0.0;
  };
  struct Phase {
    std::string_view name;
    double seconds = 0.0;
  };

  /// The phase name of the time that lies in no lap.
  static constexpr std::string_view kUnattributed = "unattributed";

  RequestProfile();

  /// Ends the open lap, if any, and opens lap `name` at the same instant.
  /// Returns the seconds of the lap it ended (0 when none was open).
  double Lap(std::string_view name);

  /// Ends the open lap, if any, and returns its seconds (0 when none was
  /// open). Time from here to the next Lap() is unattributed.
  double Stop();

  /// Records a lap that ended as this profile was constructed (queue wait,
  /// stamped by the HTTP layer), so it counts into the total too. It goes
  /// first in laps().
  void RecordPreceding(std::string_view name, double seconds);

  /// Every lap in the order it opened; an open lap is the last one.
  const std::vector<LapTime>& laps() const { return laps_; }

  /// The ended laps summed by name, in the order each name's first lap
  /// ended. `unattributed` is not among them.
  const std::vector<Phase>& phases() const { return phases_; }

  /// Sum of phases().
  double PhaseSum() const;

  /// Preceding time plus construction to the end of the last lap, or to now
  /// while a lap is open: the total the phases are attributed against.
  double TotalSeconds() const;

  /// TotalSeconds() - PhaseSum(): the time that lies in no ended lap.
  double UnattributedSeconds() const;

 private:
  double Now() const;
  /// Ends the open lap, if any, at `now`; returns its seconds.
  double EndOpenLap(double now);

  std::chrono::steady_clock::time_point epoch_;
  double preceding_s_ = 0.0;
  /// Where the last ended lap ended, in seconds since construction.
  double end_s_ = 0.0;
  bool open_ = false;
  std::vector<LapTime> laps_;
  std::vector<Phase> phases_;
};

}  // namespace obs
}  // namespace altroute
