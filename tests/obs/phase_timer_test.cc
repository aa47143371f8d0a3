#include "obs/phase_timer.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace altroute {
namespace obs {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(RequestProfileTest, RecordAppendsInOrder) {
  RequestProfile profile;
  EXPECT_EQ(profile.Lap("snap"), 0.0);  // no lap was open
  profile.Lap("engine:plateaus");
  profile.Lap("render");
  const double render_s = profile.Stop();
  ASSERT_EQ(profile.laps().size(), 3u);
  EXPECT_EQ(profile.laps()[0].name, "snap");
  EXPECT_EQ(profile.laps()[1].name, "engine:plateaus");
  EXPECT_EQ(profile.laps()[2].name, "render");
  EXPECT_EQ(profile.laps()[2].seconds, render_s);
  ASSERT_EQ(profile.phases().size(), 3u);
  EXPECT_EQ(profile.phases()[0].name, "snap");
  EXPECT_EQ(profile.phases()[1].name, "engine:plateaus");
  EXPECT_EQ(profile.phases()[2].name, "render");
  double sum = 0.0;
  for (const RequestProfile::LapTime& lap : profile.laps()) sum += lap.seconds;
  EXPECT_DOUBLE_EQ(profile.PhaseSum(), sum);
}

TEST(RequestProfileTest, DuplicateNameAccumulates) {
  RequestProfile profile;
  profile.Lap("render");
  SleepMs(1);
  profile.Lap("engine:penalty");
  profile.Lap("render");
  SleepMs(1);
  profile.Stop();
  ASSERT_EQ(profile.laps().size(), 3u);
  ASSERT_EQ(profile.phases().size(), 2u);
  EXPECT_EQ(profile.phases()[0].name, "render");
  EXPECT_DOUBLE_EQ(profile.phases()[0].seconds,
                   profile.laps()[0].seconds + profile.laps()[2].seconds);
  EXPECT_GE(profile.phases()[0].seconds, 0.002);
  EXPECT_EQ(profile.phases()[1].name, "engine:penalty");
}

TEST(RequestProfileTest, PrecedingTimeCountsTowardTotal) {
  RequestProfile profile;
  profile.Lap("snapshot_acquire");
  // Recorded after a lap opened, the preceding lap still goes first: it
  // ended before the profile was constructed.
  profile.RecordPreceding("queue_wait", 0.5);
  profile.Stop();
  ASSERT_EQ(profile.laps().size(), 2u);
  EXPECT_EQ(profile.laps()[0].name, "queue_wait");
  EXPECT_EQ(profile.laps()[0].start_s, -0.5);
  EXPECT_EQ(profile.laps()[0].seconds, 0.5);
  EXPECT_EQ(profile.laps()[1].name, "snapshot_acquire");
  ASSERT_EQ(profile.phases().size(), 2u);
  EXPECT_EQ(profile.phases()[0].name, "queue_wait");
  EXPECT_EQ(profile.phases()[1].name, "snapshot_acquire");
  // TotalSeconds = construction to the Stop() (tiny) + 0.5 preceding.
  EXPECT_GE(profile.TotalSeconds(), 0.5);
  EXPECT_LT(profile.TotalSeconds(), 0.6);
  EXPECT_GE(profile.UnattributedSeconds(), 0.0);
}

TEST(RequestProfileTest, PhaseSumTracksTotalWhenEverythingIsTimed) {
  // Laps tile: each opens at the instant the one before it ends, so the only
  // time outside them is before the first, and the phases, `unattributed`
  // included, sum to the total.
  RequestProfile profile;
  profile.Lap("a");
  SleepMs(5);
  const double a_s = profile.Lap("b");
  SleepMs(5);
  const double b_s = profile.Stop();
  const auto& laps = profile.laps();
  ASSERT_EQ(laps.size(), 2u);
  EXPECT_EQ(laps[0].seconds, a_s);
  EXPECT_EQ(laps[1].seconds, b_s);
  EXPECT_GE(a_s, 0.005);
  EXPECT_GE(b_s, 0.005);
  EXPECT_DOUBLE_EQ(laps[0].start_s + laps[0].seconds, laps[1].start_s);
  EXPECT_DOUBLE_EQ(laps[1].start_s + laps[1].seconds, profile.TotalSeconds());
  EXPECT_DOUBLE_EQ(profile.PhaseSum() + profile.UnattributedSeconds(),
                   profile.TotalSeconds());
  EXPECT_NEAR(profile.UnattributedSeconds(), laps[0].start_s, 1e-12);
  EXPECT_LT(profile.UnattributedSeconds(), 0.001);
}

TEST(RequestProfileTest, StopIsIdempotentAndFreezesTheTotal) {
  RequestProfile profile;
  EXPECT_EQ(profile.Stop(), 0.0);  // nothing open
  profile.Lap("work");
  SleepMs(1);
  const double work_s = profile.Stop();
  EXPECT_GT(work_s, 0.0);
  const double total = profile.TotalSeconds();
  SleepMs(2);
  EXPECT_EQ(profile.Stop(), 0.0);  // no second lap ends
  ASSERT_EQ(profile.phases().size(), 1u);
  EXPECT_EQ(profile.phases()[0].seconds, work_s);
  // With no lap open the total ends where the last lap ended.
  EXPECT_EQ(profile.TotalSeconds(), total);
}

TEST(RequestProfileTest, TimeBetweenLapsIsUnattributed) {
  RequestProfile profile;
  profile.Lap("a");
  profile.Stop();
  SleepMs(5);  // in no lap
  profile.Lap("b");
  profile.Stop();
  EXPECT_GE(profile.UnattributedSeconds(), 0.005);
  EXPECT_DOUBLE_EQ(profile.PhaseSum() + profile.UnattributedSeconds(),
                   profile.TotalSeconds());
  // While a lap is open it counts as unattributed: it has not ended.
  profile.Lap("c");
  SleepMs(2);
  EXPECT_GE(profile.UnattributedSeconds(), 0.007);
  EXPECT_EQ(profile.phases().size(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace altroute
