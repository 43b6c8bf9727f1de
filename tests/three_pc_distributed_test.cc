// The engine's three-phase movement commit (Sec. 4) driven through the
// simulated network with seeded link jitter and crash-restart outages that
// are masked the way Sec. 3.5 assumes (a crashed broker's messages are
// delayed, never lost): across randomized runs the source coordinator and
// the target participant never decide differently, and with the
// non-blocking timeouts both always decide.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;
constexpr BrokerId kSource = 2;
constexpr BrokerId kTarget = 5;

NetworkProfile jittery(std::uint64_t seed) {
  NetworkProfile p = NetworkProfile::lan();
  p.delay_jitter = 0.003;
  p.seed = seed;
  return p;
}

MobilityConfig non_blocking() {
  MobilityConfig cfg;
  cfg.negotiate_timeout = 0.5;
  cfg.prepare_timeout = 0.5;
  return cfg;
}

/// Chain 1-2-3-4-5: a publisher at 1, the mover at 2, moving to 5 over the
/// path 2-3-4-5 (source, two relays, target).
struct DistributedRun {
  explicit DistributedRun(std::uint64_t seed)
      : rng(seed), overlay(Overlay::chain(5)), net(overlay, {}, jittery(seed)) {
    for (BrokerId b = 1; b <= 5; ++b) {
      engines.push_back(std::make_unique<MobilityEngine>(net.broker(b), net,
                                                         non_blocking()));
      engines.back()->set_transmit([this, b](Broker::Outputs out) {
        net.transmit(b, std::move(out));
      });
    }
    Broker::Outputs out;
    engine(1).connect_client(kPublisher);
    engine(1).advertise(kPublisher, full_space_advertisement(), out);
    net.transmit(1, std::move(out));
    net.run();
    engine(kSource).connect_client(kMover);
    engine(kSource).subscribe(kMover, workload_filter(WorkloadKind::Covered, 2),
                              out);
    net.transmit(kSource, std::move(out));
    net.run();
  }

  MobilityEngine& engine(BrokerId b) { return *engines[b - 1]; }

  /// Starts the movement without running the network.
  void start_move() {
    Broker::Outputs out;
    txn = engine(kSource).initiate_move(kMover, kTarget, out);
    net.transmit(kSource, std::move(out));
  }

  std::optional<SourceCoordState> source() const {
    return engines[kSource - 1]->source_state(txn);
  }
  std::optional<TargetCoordState> target() const {
    return engines[kTarget - 1]->target_state(txn);
  }

  /// Brokers hosting a copy of the mover.
  std::vector<BrokerId> hosts() {
    std::vector<BrokerId> at;
    for (BrokerId b = 1; b <= 5; ++b) {
      if (engine(b).find_client(kMover)) at.push_back(b);
    }
    return at;
  }

  void expect_no_shadows() {
    for (BrokerId b = 1; b <= 5; ++b) {
      EXPECT_FALSE(net.broker(b).tables().has_pending_shadows()) << b;
    }
  }

  std::mt19937_64 rng;
  Overlay overlay;
  SimNetwork net;
  std::vector<std::unique_ptr<MobilityEngine>> engines;
  TxnId txn = kNoTxn;
};

bool decided(std::optional<SourceCoordState> s) {
  return s == SourceCoordState::Commit || s == SourceCoordState::Abort;
}
bool decided(std::optional<TargetCoordState> s) {
  return s == TargetCoordState::Commit || s == TargetCoordState::Abort;
}

class ThreePcDistributed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreePcDistributed, FailureFreeRunsCommitUnanimously) {
  DistributedRun run(GetParam());
  run.start_move();
  run.net.run();
  EXPECT_EQ(run.source(), SourceCoordState::Commit);
  EXPECT_EQ(run.target(), TargetCoordState::Commit);
  EXPECT_EQ(run.hosts(), std::vector<BrokerId>{kTarget});
  EXPECT_EQ(run.engine(kTarget).find_client(kMover)->state(),
            ClientState::Started);
  run.expect_no_shadows();
}

TEST_P(ThreePcDistributed, ParticipantCrashBeforeVoteAbortsConsistently) {
  DistributedRun run(GetParam());
  // The target is down from the start, long past the negotiate timeout: its
  // vote cannot arrive in time, the source aborts, and once the target
  // restarts its late approve is answered with an abort.
  run.net.pause_broker(kTarget, 5.0);
  run.start_move();
  run.net.run();
  EXPECT_EQ(run.source(), SourceCoordState::Abort);
  EXPECT_EQ(run.target(), TargetCoordState::Abort);
  EXPECT_EQ(run.hosts(), std::vector<BrokerId>{kSource});
  EXPECT_EQ(run.engine(kSource).find_client(kMover)->state(),
            ClientState::Started);
  run.expect_no_shadows();
}

TEST_P(ThreePcDistributed, CoordinatorCrashAfterPreCommitStillCommits) {
  DistributedRun run(GetParam());
  run.start_move();
  // Step until the source passes its commit point (approve received, own
  // shadows committed, state message sent), then crash it.
  bool crashed = false;
  while (run.net.events().step()) {
    if (run.source() == SourceCoordState::Prepare) {
      run.net.pause_broker(kSource, 5.0);
      crashed = true;
      break;
    }
  }
  ASSERT_TRUE(crashed) << "run never reached Prepare";
  // While the source is down, the target commits on the state message alone
  // and its copy of the client runs.
  run.net.run_until(run.net.now() + 4.0);
  EXPECT_EQ(run.source(), SourceCoordState::Prepare);
  EXPECT_EQ(run.target(), TargetCoordState::Commit);
  ASSERT_NE(run.engine(kTarget).find_client(kMover), nullptr);
  EXPECT_EQ(run.engine(kTarget).find_client(kMover)->state(),
            ClientState::Started);
  // After the restart the held ack completes the source side.
  run.net.run();
  EXPECT_EQ(run.source(), SourceCoordState::Commit);
  EXPECT_EQ(run.hosts(), std::vector<BrokerId>{kTarget});
  run.expect_no_shadows();
}

TEST_P(ThreePcDistributed, AllDecisionsAgreeUnderRandomSingleCrash) {
  // Crash one random path broker at a random point of the movement for a
  // random outage; whatever happens, source and target both decide, they
  // decide the same way, and exactly one started copy of the client is left
  // where that decision puts it.
  DistributedRun run(GetParam());
  std::uniform_int_distribution<BrokerId> who(kSource, kTarget);
  std::uniform_real_distribution<double> when(0.0, 0.04);
  std::uniform_real_distribution<double> outage(0.05, 1.5);
  const BrokerId victim = who(run.rng);
  const double down = outage(run.rng);
  run.net.events().schedule_at(run.net.now() + when(run.rng),
                               [&run, victim, down] {
                                 run.net.pause_broker(victim, down);
                               });
  run.start_move();
  run.net.run();

  const auto s = run.source();
  const auto t = run.target();
  ASSERT_TRUE(decided(s)) << "source undecided, victim " << victim;
  ASSERT_TRUE(decided(t)) << "target undecided, victim " << victim;
  const bool committed = *s == SourceCoordState::Commit;
  EXPECT_EQ(*t == TargetCoordState::Commit, committed)
      << "source " << to_string(*s) << ", target " << to_string(*t)
      << ", victim " << victim;
  const BrokerId home = committed ? kTarget : kSource;
  EXPECT_EQ(run.hosts(), std::vector<BrokerId>{home}) << "victim " << victim;
  ASSERT_NE(run.engine(home).find_client(kMover), nullptr);
  EXPECT_EQ(run.engine(home).find_client(kMover)->state(),
            ClientState::Started);
  run.expect_no_shadows();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreePcDistributed,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace tmps
