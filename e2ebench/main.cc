// Live end-to-end benchmark of the broker overlay.
//
// Drives the real Broker/MobilityEngine stack on the paper's 14-broker
// overlay (Fig. 6) through InprocTransport or TcpTransport with seeded
// inputs, checks every delivery and every movement against the benchmark's
// own computation, and prints one JSON result line:
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--short]
//
// --trace 0 reports the end-to-end metrics with every instrument off.
// --trace 1 alternates plain and instrumented rounds (stage profiler, movement
// tracer, run_on timers) and reports the per-layer ledger instead. --short
// shrinks every input for the self-test. README.md lists the workloads,
// metrics and the layer-to-end-to-end map.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "inputs.h"
#include "obs/profiler.h"
#include "pubsub/codec.h"
#include "pubsub/workload.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using tmps::Broker;
using tmps::BrokerConfig;
using tmps::Message;
using tmps::MobilityConfig;
using tmps::MobilityEngine;
using tmps::MobilityProtocol;
using tmps::MovementRecord;
using tmps::Publication;
using tmps::TxnId;

// Taken during static initialisation, before main: set-up is timed from the
// process's start.
const Clock::time_point g_process_start = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Processor time of the whole process (every thread, user and system) since
/// it started. Time the host's other tenants take from the machine is not in
/// it, so it measures the program's work on a shared host.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

double median(std::vector<float> v) {
  if (v.empty()) return 0.0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

double quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  auto at = v.begin() +
            static_cast<std::ptrdiff_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), at, v.end());
  return *at;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- the two live backends behind one interface --------------------------

class Net {
 public:
  using Op = std::function<void(MobilityEngine&, Broker::Outputs&)>;
  virtual ~Net() = default;
  virtual void run_on(BrokerId b, const Op& op) = 0;
  virtual MobilityEngine& engine(BrokerId b) = 0;
  virtual void drain() = 0;
  virtual tmps::Stats& stats() = 0;
  virtual tmps::RuntimeEnv& env() = 0;
  virtual bool start() = 0;
  virtual void stop() = 0;
};

template <class T>
class NetOf final : public Net {
 public:
  template <class... A>
  explicit NetOf(A&&... args) : t_(std::forward<A>(args)...) {}
  void run_on(BrokerId b, const Op& op) override { t_.run_on(b, op); }
  MobilityEngine& engine(BrokerId b) override { return t_.engine(b); }
  void drain() override { t_.drain(); }
  tmps::Stats& stats() override { return t_.stats(); }
  tmps::RuntimeEnv& env() override { return t_; }
  bool start() override {
    if constexpr (std::is_same_v<T, tmps::TcpTransport>) {
      return t_.start();
    } else {
      t_.start();
      return true;
    }
  }
  void stop() override { t_.stop(); }

 private:
  T t_;
};

// --- workloads ------------------------------------------------------------

enum class Order { PubsThenMoves, MovesThenPubs, Concurrent };

/// Open-loop publications per second: well below what either transport
/// sustains, so the open loop measures latency, not saturation.
constexpr double kOpenLoopRate = 10000;
/// Outstanding publications of a windowed batch. Small, so a host stall
/// cannot pile up a queue that every later publication waits behind.
constexpr std::uint64_t kWindow = 8;

struct Spec {
  std::string name;
  bool tcp = false;
  bool covering = false;
  MobilityProtocol protocol = MobilityProtocol::Reconfiguration;
  int families = 40;
  int replicas = 1;
  int movers_per_lane = 10;
  bool roots_move = false;    ///< half of each lane's movers are family roots
  bool serial_lanes = false;  ///< one movement in flight per lane
  int moves_per_mover = 2;    ///< per round; even, so movers end rounds at home
  bool open_loop = false;     ///< scheduled publications instead of a window
  /// With Concurrent, sent while the moves run, paced by their commits.
  int pubs_per_round = 0;
  Order order = Order::PubsThenMoves;
  /// Rounds whose processor time per operation a run reports.
  int metric_rounds = 0;
};

Spec make_spec(const std::string& name, bool small) {
  Spec s;
  s.name = name;
  if (name == "fanout") {
    s.families = small ? 50 : 100;
    s.replicas = 4;
    s.movers_per_lane = 4;
    s.moves_per_mover = small ? 10 : 50;
    s.pubs_per_round = 2000;
    s.order = Order::PubsThenMoves;
    s.metric_rounds = 48;
  } else if (name == "mixed") {
    s.movers_per_lane = 10;
    s.moves_per_mover = small ? 4 : 40;
    s.pubs_per_round = small ? 400 : 4000;
    s.order = Order::Concurrent;
    s.metric_rounds = 64;
  } else if (name == "tcp") {
    s.tcp = true;
    s.movers_per_lane = 10;
    s.moves_per_mover = small ? 2 : 20;
    s.open_loop = true;
    s.pubs_per_round = small ? 500 : 5000;
    s.order = Order::PubsThenMoves;
    s.metric_rounds = 24;
  } else if (name == "move_covering") {
    s.covering = true;
    s.protocol = MobilityProtocol::Traditional;
    s.families = small ? 40 : 200;
    s.movers_per_lane = small ? 8 : 24;
    s.roots_move = true;
    s.serial_lanes = true;
    s.moves_per_mover = small ? 2 : 4;
    s.pubs_per_round = small ? 500 : 2000;
    s.order = Order::MovesThenPubs;
    s.metric_rounds = 72;
  } else {
    die("unknown workload '" + name + "'");
  }
  return s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--short") {
      a.small = true;
    } else {
      die("unknown argument " + k);
    }
  }
  if (!have_workload) die("--workload is required");
  return a;
}

// Measured figures of one kind of round (plain or instrumented).
struct Tally {
  std::uint64_t pubs = 0;
  double pub_s = 0;
  std::vector<float> delivery_ms;
  std::uint64_t moves = 0;
  double move_s = 0;
  std::vector<float> move_ms;
  std::vector<float> late_ms;
  std::vector<float> run_on_us;

  /// Per-round wall-clock rates, reported on standard error only.
  std::vector<float> pub_rates;
  std::vector<float> move_rates;
  /// Per-round processor time per operation (publication or committed
  /// movement), in microseconds; a run reports their median.
  std::vector<float> cpu_us_per_op;

  double pubs_per_s() const { return median(pub_rates); }
  double moves_per_s() const { return median(move_rates); }
  /// Median over the first `rounds` rounds: a fixed amount of work, so the
  /// figure does not follow how many rounds a run's wall time allowed.
  double cpu_per_op(std::size_t rounds) const {
    const std::size_t n = std::min(rounds, cpu_us_per_op.size());
    return median({cpu_us_per_op.begin(),
                   cpu_us_per_op.begin() + static_cast<std::ptrdiff_t>(n)});
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(Spec spec, Args args)
      : spec_(std::move(spec)),
        args_(std::move(args)),
        overlay_(tmps::Overlay::paper_default()) {}

  ~Bench() {
    if (net_) net_->stop();
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run();

 private:
  struct Mover {
    std::size_t lane = 0;
    std::size_t chain = 0;
    BrokerId at = 0;
    BrokerId pending_to = 0;
    TxnId txn = tmps::kNoTxn;
  };
  struct Chain {
    std::vector<ClientId> movers;
    std::size_t next = 0;
    int left = 0;
  };
  struct Shard {
    std::mutex mu;
    std::vector<Delivery> recs;
    std::uint64_t total = 0;
  };
  struct OpenLoop {
    Clock::time_point t0;
    std::uint64_t sent = 0;
    std::uint64_t limit = 0;
  };

  void setup();
  void settle(std::uint64_t expected_processed);
  std::uint64_t processed() const;
  std::uint64_t sub_messages(BrokerId home);
  void choose_movers(std::mt19937_64& rng);

  void round();
  void pub_phase();
  void move_phase(std::uint64_t paced_pubs);
  void begin_pubs();
  void send_pub(std::uint64_t i, std::int64_t sched_ns);
  void send_due(OpenLoop& ol);
  bool wait_completed(std::uint64_t target, double timeout_s);
  bool check_pubs(std::uint64_t sent);
  void finish_pubs(std::uint64_t sent, Clock::time_point t0, double cpu0);
  void start_move(std::size_t chain);
  void on_moved(const MovementRecord& rec);
  void handle_event(const MovementRecord& rec);
  void timed_run_on(BrokerId b, const Net::Op& op);

  void on_delivery(BrokerId b, ClientId c, const Publication& p);
  std::vector<Delivery> take_deliveries();
  void fail(const std::string& why);

  void final_checks();
  void set_instruments(bool on);
  std::vector<Metric> end_to_end_metrics();
  std::vector<Metric> layer_metrics();
  void print_result(const std::vector<Metric>& metrics);

  std::uint64_t counter_sum(const char* name) const;
  std::size_t metric_rounds() const {
    return static_cast<std::size_t>(args_.small ? 2 : spec_.metric_rounds);
  }
  ClientId publisher(BrokerId b) const { return 10000000 + b; }

  Spec spec_;
  Args args_;
  tmps::Overlay overlay_;
  Population pop_;
  std::unique_ptr<Net> net_;

  std::map<ClientId, Mover> movers_;
  std::vector<Chain> chains_;
  std::map<BrokerId, std::uint64_t> sub_msgs_cache_;

  // Delivery sink: one shard per broker, plus completion tracking for the
  // publications of the running round.
  std::vector<std::unique_ptr<Shard>> shards_;
  static constexpr std::size_t kTrackCap = 1 << 20;
  std::unique_ptr<std::atomic<std::int32_t>[]> remaining_;
  std::atomic<std::uint32_t> track_base_{0};
  std::atomic<std::uint32_t> track_n_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> wake_at_{~0ull};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  // Round publications: inputs, expected delivery counts, send times.
  std::vector<PubSpec> round_pubs_;
  std::vector<std::int64_t> sched_ns_;
  std::uint32_t next_seq_ = 1;
  int round_ = 0;

  // Commit records from the engines' move callbacks.
  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::deque<MovementRecord> events_;
  int commits_left_ = 0;

  std::vector<const tmps::obs::Counter*> processed_ctrs_;

  bool traced_round_ = false;
  Tally plain_;
  Tally traced_;
  Tally* cur_ = &plain_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string failure_;
  double setup_cpu_s_ = 0;
  double setup_wall_s_ = 0;
  double measured_s_ = 0;  ///< wall time of the measured phases so far
  /// Processor time and operations of the running round's measured phases;
  /// the benchmark's own checks between phases are left out.
  double round_cpu_s_ = 0;
  std::uint64_t round_ops_ = 0;
  /// Peak RSS once set-up and the first spec_.metric_rounds plain rounds are
  /// done: a fixed amount of work, so the figure does not follow how fast
  /// the run went.
  double rss_mb_ = 0;
  std::map<std::string, std::uint64_t> types_at_setup_;
  std::uint64_t unquench_at_setup_ = 0;
  std::uint64_t retract_at_setup_ = 0;
};

std::uint64_t Bench::counter_sum(const char* name) const {
  auto* reg = net_->env().metrics();
  std::uint64_t sum = 0;
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    sum += reg->counter_value(name, {{"broker", std::to_string(b)}});
  }
  return sum;
}

std::uint64_t Bench::processed() const {
  std::uint64_t sum = 0;
  for (const auto* c : processed_ctrs_) sum += c->value();
  return sum;
}

// Messages a subscription issued at `home` causes with covering off: one per
// overlay edge on the union of the paths from `home` to the advertisers.
std::uint64_t Bench::sub_messages(BrokerId home) {
  auto [it, fresh] = sub_msgs_cache_.try_emplace(home, 0);
  if (!fresh) return it->second;
  std::set<std::pair<BrokerId, BrokerId>> edges;
  for (BrokerId a : kPublisherBrokers) {
    const auto path = overlay_.path(home, a);
    for (std::size_t i = 1; i < path.size(); ++i) {
      edges.emplace(std::min(path[i - 1], path[i]),
                    std::max(path[i - 1], path[i]));
    }
  }
  it->second = edges.size();
  return it->second;
}

// Waits until routing is quiescent. With covering off the benchmark knows the
// exact message count set-up causes, so it waits for exactly that many to be
// processed and then takes every broker's lock once, which returns only after
// any call still inside a broker has finished. With covering on the count
// depends on arrival order, and the transport's own drain() is used.
void Bench::settle(std::uint64_t expected) {
  if (spec_.covering) {
    net_->drain();
    return;
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (processed() < expected) {
    if (Clock::now() > deadline) {
      die("set-up stalled at " + std::to_string(processed()) + " of " +
          std::to_string(expected) + " routing messages");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    net_->run_on(b, [](MobilityEngine&, Broker::Outputs&) {});
  }
  if (processed() != expected) {
    die("set-up caused " + std::to_string(processed()) +
        " routing messages, expected " + std::to_string(expected));
  }
}

void Bench::choose_movers(std::mt19937_64& rng) {
  std::vector<std::size_t> roots;
  std::vector<std::size_t> others;
  for (std::size_t i = 0; i < pop_.subscribers.size(); ++i) {
    (pop_.subscribers[i].member == 0 ? roots : others).push_back(i);
  }
  std::shuffle(roots.begin(), roots.end(), rng);
  std::shuffle(others.begin(), others.end(), rng);
  std::size_t ri = 0;
  std::size_t oi = 0;
  for (std::size_t lane = 0; lane < kMoveLanes.size(); ++lane) {
    Chain serial;
    for (int k = 0; k < spec_.movers_per_lane; ++k) {
      const bool root = spec_.roots_move && k % 2 == 0;
      const std::size_t idx = root ? roots.at(ri++) : others.at(oi++);
      Subscriber& s = pop_.subscribers[idx];
      s.home = kMoveLanes[lane].first;
      Mover m;
      m.lane = lane;
      m.chain = chains_.size();
      m.at = s.home;
      if (spec_.serial_lanes) {
        serial.movers.push_back(s.client);
      } else {
        chains_.push_back(Chain{{s.client}, 0, 0});
      }
      movers_[s.client] = m;
    }
    if (spec_.serial_lanes) chains_.push_back(std::move(serial));
  }
}

void Bench::setup() {
  std::mt19937_64 rng(splitmix64(args_.seed));
  pop_ = Population::make(spec_.families, spec_.replicas, rng);
  choose_movers(rng);

  BrokerConfig bc;
  bc.subscription_covering = spec_.covering;
  bc.advertisement_covering = spec_.covering;
  MobilityConfig mc;
  mc.protocol = spec_.protocol;
  if (spec_.tcp) {
    net_ = std::make_unique<NetOf<tmps::TcpTransport>>(
        overlay_, std::uint16_t{0}, bc, mc);
  } else {
    net_ = std::make_unique<NetOf<tmps::InprocTransport>>(overlay_, bc, mc);
  }

  remaining_ = std::make_unique<std::atomic<std::int32_t>[]>(kTrackCap);
  shards_.resize(overlay_.broker_count() + 1);
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    shards_[b] = std::make_unique<Shard>();
    MobilityEngine& e = net_->engine(b);
    e.set_delivery_sink([this, b](ClientId c, const Publication& p,
                                  tmps::SimTime) { on_delivery(b, c, p); });
    e.set_move_callback([this](const MovementRecord& r) { on_moved(r); });
    processed_ctrs_.push_back(&net_->env().metrics()->counter(
        "broker_messages_processed_total", {{"broker", std::to_string(b)}}));
  }
  if (!net_->start()) die("transport failed to start");

  for (BrokerId b : kPublisherBrokers) {
    net_->run_on(b, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(publisher(b));
      e.advertise(publisher(b), tmps::full_space_advertisement(), out);
    });
  }
  std::uint64_t expected = kPublisherBrokers.size() * (overlay_.broker_count() - 1);
  settle(expected);
  for (const Subscriber& s : pop_.subscribers) {
    const tmps::Filter f = member_filter(
        pop_.families[static_cast<std::size_t>(s.family)], s.member);
    net_->run_on(s.home, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(s.client);
      e.subscribe(s.client, f, out);
    });
    expected += sub_messages(s.home);
  }
  settle(expected);
  setup_cpu_s_ = cpu_now_s();
  setup_wall_s_ = seconds_since(g_process_start);

  types_at_setup_ = net_->stats().type_counts();
  unquench_at_setup_ = counter_sum("broker_covering_unquenches_total");
  retract_at_setup_ = counter_sum("broker_covering_retracts_total");
  if (args_.trace) {
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      net_->run_on(b, [](MobilityEngine& e, Broker::Outputs&) {
        e.broker().enable_profiling(1);
        e.broker().profiler()->set_enabled(false);
      });
    }
  }
}

void Bench::set_instruments(bool on) {
  traced_round_ = on;
  cur_ = on ? &traced_ : &plain_;
  net_->env().tracer()->set_enabled(on);
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    if (auto* p = net_->engine(b).broker().profiler()) p->set_enabled(on);
  }
}

void Bench::timed_run_on(BrokerId b, const Net::Op& op) {
  if (!traced_round_) {
    net_->run_on(b, op);
    return;
  }
  const auto t0 = Clock::now();
  net_->run_on(b, op);
  cur_->run_on_us.push_back(static_cast<float>(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count()));
}

void Bench::fail(const std::string& why) {
  if (failure_.empty()) failure_ = why;
}

// --- delivery sink ----------------------------------------------------------

void Bench::on_delivery(BrokerId b, ClientId c, const Publication& p) {
  const std::int64_t t = now_ns();
  const std::uint32_t seq = p.id().seq;
  {
    Shard& s = *shards_[b];
    std::lock_guard lock(s.mu);
    s.recs.push_back({c, seq, t});
    ++s.total;
  }
  const std::uint32_t idx = seq - track_base_.load(std::memory_order_relaxed);
  if (idx < track_n_.load(std::memory_order_acquire) &&
      remaining_[idx].fetch_sub(1) == 1) {
    const std::uint64_t done = completed_.fetch_add(1) + 1;
    if (done == wake_at_.load()) {
      std::lock_guard lock(wake_mu_);
      wake_cv_.notify_all();
    }
  }
}

std::vector<Delivery> Bench::take_deliveries() {
  std::vector<Delivery> all;
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    Shard& s = *shards_[b];
    std::lock_guard lock(s.mu);
    all.insert(all.end(), s.recs.begin(), s.recs.end());
    s.recs.clear();
  }
  return all;
}

bool Bench::wait_completed(std::uint64_t target, double timeout_s) {
  if (completed_.load() >= target) return true;
  wake_at_.store(target);
  std::unique_lock lock(wake_mu_);
  return wake_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [&] { return completed_.load() >= target; });
}

// --- publications -----------------------------------------------------------

// The inputs of publication i of round r depend only on (seed, r, i), so an
// open loop whose length follows the run's timing still sees the same
// inputs for the same seed.
void Bench::begin_pubs() {
  round_pubs_.clear();
  sched_ns_.clear();
  completed_.store(0);
  wake_at_.store(~0ull);
  track_n_.store(0);
  track_base_.store(next_seq_);
}

void Bench::send_pub(std::uint64_t i, std::int64_t sched_ns) {
  if (i >= kTrackCap) die("too many publications in one round");
  std::mt19937_64 rng(
      splitmix64(args_.seed ^ (static_cast<std::uint64_t>(round_) << 40) ^ i));
  const PubSpec ps = make_pub(pop_, i, rng);
  round_pubs_.push_back(ps);
  sched_ns_.push_back(sched_ns);
  remaining_[i].store(pop_.match_count(ps));
  track_n_.store(static_cast<std::uint32_t>(i + 1), std::memory_order_release);
  const std::uint32_t seq = next_seq_++;
  const ClientId from = publisher(ps.origin);
  Publication pub = tmps::make_publication(
      {from, seq}, ps.x, pop_.families[static_cast<std::size_t>(ps.family)].group);
  timed_run_on(ps.origin, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(from, std::move(pub), out);
  });
  ++attempted_;
}

void Bench::send_due(OpenLoop& ol) {
  while (ol.sent < ol.limit) {
    const auto due =
        ol.t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ol.sent / kOpenLoopRate));
    const auto now = Clock::now();
    if (due > now) return;
    cur_->late_ms.push_back(static_cast<float>(
        std::chrono::duration<double, std::milli>(now - due).count()));
    send_pub(ol.sent++, std::chrono::duration_cast<std::chrono::nanoseconds>(
                            due.time_since_epoch())
                            .count());
  }
}

// Checks the round's deliveries against the benchmark's own expectation and
// books their latencies. False (with the failure recorded) on any lost,
// duplicated or unexpected delivery.
bool Bench::check_pubs(std::uint64_t sent) {
  const std::uint32_t base = track_base_.load();
  std::vector<Delivery> got = take_deliveries();
  std::vector<Pair> expected;
  for (std::uint64_t i = 0; i < sent; ++i) {
    pop_.for_each_match(round_pubs_[i], [&](ClientId c) {
      expected.emplace_back(base + static_cast<std::uint32_t>(i), c);
    });
  }
  const DeliveryCheck chk = check_deliveries(std::move(expected), got);
  if (!chk.ok()) {
    failed_ += chk.failed_pubs;
    fail("round " + std::to_string(round_) + ": " + chk.first_error + " (" +
         std::to_string(chk.lost) + " lost, " + std::to_string(chk.duplicated) +
         " duplicated, " + std::to_string(chk.unexpected) +
         " unexpected deliveries)");
    return false;
  }
  for (const Delivery& d : got) {
    cur_->delivery_ms.push_back(
        static_cast<float>((d.t_ns - sched_ns_[d.seq - base]) / 1e6));
  }
  return true;
}

// Waits for every matching delivery of the round's `sent` publications,
// books the processor time since `cpu0`, then checks them; books the phase's
// rate when all is well.
void Bench::finish_pubs(std::uint64_t sent, Clock::time_point t0, double cpu0) {
  if (!wait_completed(sent, 10.0)) {
    net_->drain();
    if (check_pubs(sent)) fail("publications incomplete after 10 s");
    return;
  }
  const double pub_s = seconds_since(t0);
  round_cpu_s_ += cpu_now_s() - cpu0;
  round_ops_ += sent;
  if (!check_pubs(sent)) return;
  cur_->pubs += sent;
  cur_->pub_s += pub_s;
  measured_s_ += pub_s;
  cur_->pub_rates.push_back(static_cast<float>(static_cast<double>(sent) / pub_s));
}

void Bench::pub_phase() {
  begin_pubs();
  const auto n = static_cast<std::uint64_t>(spec_.pubs_per_round);
  const auto t0 = Clock::now();
  const double cpu0 = cpu_now_s();
  if (spec_.open_loop) {
    OpenLoop ol{t0, 0, n};
    while (ol.sent < n) {
      send_due(ol);
      if (ol.sent < n) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(ol.sent / kOpenLoopRate)));
      }
    }
  } else {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i >= kWindow + completed_.load() &&
          !wait_completed(i - kWindow / 2, 10.0)) {
        finish_pubs(i, t0, cpu0);  // records what was lost
        return;
      }
      send_pub(i, now_ns());
    }
  }
  finish_pubs(n, t0, cpu0);
}

// --- movements --------------------------------------------------------------

void Bench::start_move(std::size_t ci) {
  Chain& ch = chains_[ci];
  const ClientId c = ch.movers[ch.next++ % ch.movers.size()];
  Mover& m = movers_.at(c);
  const auto [a, b] = kMoveLanes[m.lane];
  const BrokerId from = m.at;
  const BrokerId to = from == a ? b : a;
  tmps::MoveStart st;
  timed_run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
    st = e.try_initiate_move(c, to, out);
  });
  ++attempted_;
  if (!st.started()) {
    ++failed_;
    fail("movement of " + std::to_string(c) + " refused: " +
         tmps::to_string(st.refusal));
    return;
  }
  m.txn = st.txn;
  m.pending_to = to;
}

void Bench::on_moved(const MovementRecord& rec) {
  {
    std::lock_guard lock(ev_mu_);
    events_.push_back(rec);
  }
  ev_cv_.notify_one();
}

void Bench::handle_event(const MovementRecord& rec) {
  auto it = movers_.find(rec.client);
  if (it == movers_.end() || it->second.txn != rec.txn) {
    fail("movement record for an unknown transaction");
    return;
  }
  Mover& m = it->second;
  if (!rec.committed || rec.target != m.pending_to) {
    ++failed_;
    fail("movement of " + std::to_string(rec.client) + " aborted");
    return;
  }
  m.at = rec.target;
  m.txn = tmps::kNoTxn;
  cur_->move_ms.push_back(static_cast<float>(rec.duration() * 1e3));
  --commits_left_;
  Chain& ch = chains_[m.chain];
  if (--ch.left > 0) start_move(m.chain);
}

// Runs every chain's moves for the round. With `paced_pubs` > 0 the round's
// publications go out while the moves run, in step with the commits: after
// k of K commits, paced_pubs * k / K of them have been sent. The count of
// each kind of operation is then fixed, however fast the host runs; the
// caller books the processor time, up to the last publication's delivery.
void Bench::move_phase(std::uint64_t paced_pubs) {
  commits_left_ = 0;
  for (Chain& ch : chains_) {
    ch.left = static_cast<int>(ch.movers.size()) * spec_.moves_per_mover;
    ch.next = 0;
    commits_left_ += ch.left;
  }
  const int commits = commits_left_;
  const auto send_paced = [&] {
    const std::uint64_t due =
        paced_pubs * static_cast<std::uint64_t>(commits - commits_left_) /
        static_cast<std::uint64_t>(commits);
    while (round_pubs_.size() < due) send_pub(round_pubs_.size(), now_ns());
  };
  const auto t0 = Clock::now();
  const double cpu0 = cpu_now_s();
  for (std::size_t ci = 0; ci < chains_.size() && failure_.empty(); ++ci) {
    start_move(ci);
  }
  auto last_progress = Clock::now();
  while (commits_left_ > 0 && failure_.empty()) {
    std::deque<MovementRecord> evs;
    {
      std::unique_lock lock(ev_mu_);
      ev_cv_.wait_for(lock, std::chrono::milliseconds(100),
                      [&] { return !events_.empty(); });
      evs.swap(events_);
    }
    if (!evs.empty()) last_progress = Clock::now();
    for (const auto& rec : evs) handle_event(rec);
    send_paced();
    if (seconds_since(last_progress) > 20) fail("movements stalled for 20 s");
  }
  cur_->moves += static_cast<std::uint64_t>(commits);
  const double move_s = seconds_since(t0);
  cur_->move_s += move_s;
  if (paced_pubs == 0) {
    round_cpu_s_ += cpu_now_s() - cpu0;
    measured_s_ += move_s;  // a paced round's phase ends with its deliveries
  }
  round_ops_ += static_cast<std::uint64_t>(commits);
  cur_->move_rates.push_back(static_cast<float>(commits / move_s));
}

void Bench::round() {
  round_cpu_s_ = 0;
  round_ops_ = 0;
  switch (spec_.order) {
    case Order::PubsThenMoves:
      pub_phase();
      if (failure_.empty()) move_phase(0);
      break;
    case Order::MovesThenPubs:
      move_phase(0);
      if (failure_.empty()) pub_phase();
      break;
    case Order::Concurrent: {
      begin_pubs();
      const auto t0 = Clock::now();
      const double cpu0 = cpu_now_s();
      move_phase(static_cast<std::uint64_t>(spec_.pubs_per_round));
      if (!failure_.empty()) return;
      finish_pubs(round_pubs_.size(), t0, cpu0);
      break;
    }
  }
  if (failure_.empty()) {
    cur_->cpu_us_per_op.push_back(static_cast<float>(
        round_cpu_s_ * 1e6 / static_cast<double>(round_ops_)));
  }
}

// --- end-of-run checks --------------------------------------------------------

void Bench::final_checks() {
  net_->drain();
  const std::vector<Delivery> late = take_deliveries();
  if (!late.empty()) {
    failed_ += late.size();
    fail(std::to_string(late.size()) +
         " deliveries arrived after their round was complete (duplicates)");
  }

  std::map<ClientId, BrokerId> expected_at;
  std::map<ClientId, std::vector<BrokerId>> live;
  for (const auto& [c, m] : movers_) expected_at[c] = m.at;
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    net_->run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
      for (const auto& entry : movers_) {
        const ClientId c = entry.first;
        const tmps::ClientStub* stub = e.find_client(c);
        if (stub && stub->state() == tmps::ClientState::Started) {
          live[c].push_back(b);
        } else if (stub) {
          fail("mover " + std::to_string(c) + " left in a non-started state");
        }
      }
    });
  }
  if (const std::string err = check_placement(expected_at, live); !err.empty()) {
    fail(err);
  }

  std::uint64_t sink_total = 0;
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    std::lock_guard lock(shards_[b]->mu);
    sink_total += shards_[b]->total;
  }
  // A broker counts a delivery when it reaches its local client stub. While a
  // client moves, its publications can reach both the source and the target
  // stub and the hand-off keeps one copy, so the brokers' count may exceed
  // the sink's when publications overlap movements; otherwise they are equal.
  const std::uint64_t broker_total = counter_sum("broker_deliveries_total");
  const bool overlap = spec_.order == Order::Concurrent;
  if (overlap ? sink_total > broker_total : sink_total != broker_total) {
    fail("sink counted " + std::to_string(sink_total) +
         " deliveries, brokers counted " + std::to_string(broker_total));
  }

  const auto& recs = net_->stats().movements();
  for (const MovementRecord& rec : recs) {
    if (!rec.committed) fail("a movement aborted");
  }
  if (spec_.protocol == MobilityProtocol::Reconfiguration && !recs.empty()) {
    // The paper's cost law: on the two 5-hop pairs, in both directions, a
    // movement costs the same number of messages.
    for (const MovementRecord& rec : recs) {
      if (rec.messages != recs.front().messages) {
        fail("movement " + std::to_string(rec.source) + "->" +
             std::to_string(rec.target) + " cost " +
             std::to_string(rec.messages) + " messages, another cost " +
             std::to_string(recs.front().messages));
        break;
      }
    }
  }
  if (spec_.covering &&
      counter_sum("broker_covering_unquenches_total") == unquench_at_setup_) {
    fail("covering movements caused no un-quench burst");
  }
}

// --- metrics --------------------------------------------------------------


// Wall-clock figures depend on how much of the machine the host's other
// tenants leave the program, so they go to standard error as reference
// figures; the result line carries processor time, counts and memory.
std::vector<Metric> Bench::end_to_end_metrics() {
  const Tally& t = plain_;
  double msgs = 0;
  std::uint64_t n = 0;
  for (const MovementRecord& rec : net_->stats().movements()) {
    msgs += static_cast<double>(rec.messages);
    ++n;
  }
  std::fprintf(stderr,
               "e2ebench %s: wall clock: set-up %.4f s; %llu pubs at %.0f/s, "
               "delivery p50 %.4f ms p99 %.4f ms over %zu deliveries; "
               "%llu moves at %.0f/s, move p50 %.4f ms p99 %.4f ms\n",
               spec_.name.c_str(), setup_wall_s_,
               static_cast<unsigned long long>(t.pubs), t.pubs_per_s(),
               median(t.delivery_ms), quantile(t.delivery_ms, 0.99),
               t.delivery_ms.size(), static_cast<unsigned long long>(t.moves),
               t.moves_per_s(), median(t.move_ms), quantile(t.move_ms, 0.99));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(stderr,
               "e2ebench %s: process cpu user %.2f s sys %.2f s, context "
               "switches %ld voluntary %ld involuntary\n",
               spec_.name.c_str(),
               static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
               static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6,
               ru.ru_nvcsw, ru.ru_nivcsw);
  std::fprintf(stderr, "e2ebench %s: %zu rounds; cpu us/op", spec_.name.c_str(),
               t.cpu_us_per_op.size());
  for (float v : t.cpu_us_per_op) std::fprintf(stderr, " %.1f", v);
  std::fprintf(stderr, "\n");
  return {
      {"setup_s", setup_cpu_s_, "s"},
      {"cpu_us_per_op", t.cpu_per_op(metric_rounds()), "us"},
      {"msgs_per_move", n ? msgs / static_cast<double>(n) : 0, "messages"},
      {"peak_rss_mb", rss_mb_ > 0 ? rss_mb_ : peak_rss_mb(), "MB"},
  };
}

// Program threads: everything in the process but the generator (main) thread.
double program_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8)) - 1;
  }
  return 0;
}

// A representative wire message of each type the run sent, for timing the
// codec outside the transport.
std::map<std::string, Message> sample_messages(const Population& pop) {
  const tmps::Filter f = member_filter(pop.families[0], 1);
  const tmps::Subscription sub{{1, 1}, f};
  const Publication pub = tmps::make_publication({10000006, 1}, 1234, 0);
  std::map<std::string, Message> m;
  const auto add = [&](tmps::Payload p, bool unicast) {
    Message msg;
    msg.id = 42;
    msg.cause = 7;
    if (unicast) msg.unicast_dest = 13;
    msg.payload = std::move(p);
    m[std::string(msg.type_name())] = msg;
  };
  Message pm;
  pm.id = 42;
  pm.payload = tmps::PublishMsg{pub};
  pm.prov = tmps::obs::ProvenanceTag{};
  m["pub"] = pm;
  add(tmps::SubscribeMsg{sub}, false);
  add(tmps::UnsubscribeMsg{sub.id}, false);
  add(tmps::MoveNegotiateMsg{7, 1, 1, 13, {sub}, {}, 2}, true);
  add(tmps::MoveApproveMsg{7, 1, 1, 13, {sub}, {}}, true);
  add(tmps::MoveStateMsg{7, 1, 1, 13, {}, {}, {sub.id}, {}}, true);
  add(tmps::MoveAckMsg{7, 1}, true);
  add(tmps::TradMoveRequestMsg{7, 1, 1, 13, {sub}, {}, 2}, true);
  add(tmps::TradReadyMsg{7, 1}, true);
  add(tmps::BufferedStateMsg{7, 1, {}, {}}, true);
  return m;
}

std::vector<Metric> Bench::layer_metrics() {
  const Tally& t = traced_;
  std::vector<Metric> out;
  const double ops = static_cast<double>(std::max<std::uint64_t>(
      1, t.pubs + t.moves));
  auto* reg = net_->env().metrics();
  const std::map<std::string, std::uint64_t> types = net_->stats().type_counts();
  const auto delta = [&](const std::string& type) {
    const auto a = types.find(type);
    const auto b = types_at_setup_.find(type);
    return static_cast<double>((a == types.end() ? 0 : a->second) -
                               (b == types_at_setup_.end() ? 0 : b->second));
  };
  const double all_pubs = static_cast<double>(plain_.pubs + t.pubs);
  const double all_moves =
      static_cast<double>(std::max<std::uint64_t>(1, plain_.moves + t.moves));

  // transport
  const double frames =
      static_cast<double>(reg->counter_value("tcp_frames_sent_total"));
  const double bytes =
      static_cast<double>(reg->counter_value("tcp_bytes_sent_total"));
  out.push_back({"transport.run_on_us", median(t.run_on_us), "us"});
  out.push_back({"transport.msgs_per_pub",
                 all_pubs > 0 ? delta("pub") / all_pubs : 0, "messages"});
  out.push_back({"transport.wire_bytes_per_msg", frames > 0 ? bytes / frames : 0,
                 "B"});
  out.push_back({"transport.generator_late_ms", median(t.late_ms), "ms"});
  out.push_back({"transport.program_threads", program_threads(), "count"});

  // broker: stage profiler, traced rounds only
  for (int si = 0; si < tmps::obs::kStageCount; ++si) {
    const auto s = static_cast<tmps::obs::Stage>(si);
    std::uint64_t calls = 0;
    std::uint64_t self = 0;
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      if (auto* p = net_->engine(b).broker().profiler()) {
        p->flush(nullptr);
        calls += p->calls(s);
        self += p->self_ns(s);
      }
    }
    const std::string name = std::string("broker.") + tmps::obs::stage_name(s);
    out.push_back({name + ".self_ns",
                   calls ? static_cast<double>(self) / static_cast<double>(calls)
                         : 0,
                   "ns"});
    out.push_back({name + ".calls_per_op", static_cast<double>(calls) / ops,
                   "calls"});
  }

  // routing: replay publications against every broker's quiescent tables
  std::mt19937_64 rng(splitmix64(args_.seed ^ 0xABCDEFull));
  std::vector<Publication> replay;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const PubSpec ps = make_pub(pop_, i, rng);
    replay.push_back(tmps::make_publication(
        {publisher(ps.origin), static_cast<std::uint32_t>(i + 1)}, ps.x,
        pop_.families[static_cast<std::size_t>(ps.family)].group));
  }
  double match_ns = 0;
  std::uint64_t matches = 0;
  std::uint64_t prt = 0;
  std::size_t sink = 0;
  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    net_->run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
      const tmps::RoutingTables& rt = e.broker().tables();
      prt += rt.sub_count();
      const auto t0 = Clock::now();
      for (const Publication& p : replay) sink += rt.match(p).links.size();
      match_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                      .count();
      matches += replay.size();
    });
  }
  out.push_back({"routing.match_ns", match_ns / static_cast<double>(matches),
                 "ns"});
  out.push_back({"routing.prt_entries", static_cast<double>(prt), "entries"});
  std::fprintf(stderr, "e2ebench %s: replayed %llu matches, %zu links\n",
               spec_.name.c_str(), static_cast<unsigned long long>(matches),
               sink);

  // core: movement phases from the tracer's spans, message mix per movement
  std::map<std::string, std::vector<float>> phases;
  for (const auto& rec : net_->env().tracer()->records()) {
    if (rec.is_span && !rec.open && rec.name.rfind("phase:", 0) == 0) {
      phases[rec.name.substr(6)].push_back(
          static_cast<float>((rec.t1 - rec.t0) * 1e3));
    }
  }
  for (const char* ph : {"prepare", "precommit", "commit"}) {
    out.push_back({std::string("core.") + ph + "_ms", median(phases[ph]), "ms"});
  }
  const std::pair<const char*, const char*> move_types[] = {
      {"move-negotiate", "negotiate"}, {"move-approve", "approve"},
      {"move-state", "state"},         {"move-ack", "ack"},
      {"trad-move-request", "trad_request"}, {"trad-ready", "trad_ready"},
      {"buffered-state", "buffered_state"},  {"sub", "sub"},
      {"unsub", "unsub"}};
  for (const auto& [type, label] : move_types) {
    out.push_back({std::string("core.msgs_per_move.") + label,
                   delta(type) / all_moves, "messages"});
  }
  out.push_back(
      {"core.unquenches_per_move",
       static_cast<double>(counter_sum("broker_covering_unquenches_total") -
                           unquench_at_setup_) /
           all_moves,
       "count"});
  out.push_back(
      {"core.retracts_per_move",
       static_cast<double>(counter_sum("broker_covering_retracts_total") -
                           retract_at_setup_) /
           all_moves,
       "count"});

  // pubsub: the codec on the run's message mix
  double enc_ns = 0;
  double dec_ns = 0;
  double size = 0;
  double weight = 0;
  for (const auto& [type, msg] : sample_messages(pop_)) {
    const double w = delta(type);
    if (w <= 0) continue;
    constexpr int kReps = 2000;
    std::string wire;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) wire = tmps::encode_message(msg);
    const auto t1 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      if (!tmps::decode_message(wire)) die("codec round trip failed: " + type);
    }
    const auto t2 = Clock::now();
    enc_ns += w * std::chrono::duration<double, std::nano>(t1 - t0).count() / kReps;
    dec_ns += w * std::chrono::duration<double, std::nano>(t2 - t1).count() / kReps;
    size += w * static_cast<double>(wire.size());
    weight += w;
  }
  weight = std::max(weight, 1.0);
  out.push_back({"pubsub.encode_ns", enc_ns / weight, "ns"});
  out.push_back({"pubsub.decode_ns", dec_ns / weight, "ns"});
  out.push_back({"pubsub.bytes", size / weight, "B"});

  // obs: processor time per operation, instrumented against plain rounds of
  // the same run
  const double plain = plain_.cpu_per_op(metric_rounds());
  out.push_back({"obs.tracing_overhead_pct",
                 plain > 0 ? (t.cpu_per_op(metric_rounds()) - plain) / plain * 100
                           : 0,
                 "%"});
  return out;
}

void Bench::print_result(const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += failure_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::run() {
  setup();
  // A run measures for --seconds and at least metric_rounds() rounds (half
  // of them of each kind when traced), unless a slow host stretches that
  // past four times --seconds. Traced runs alternate plain and instrumented
  // rounds and end on an instrumented one.
  const auto enough = [&] {
    const std::size_t want = args_.trace ? metric_rounds() / 2 : metric_rounds();
    const bool done = plain_.cpu_us_per_op.size() >= want &&
                      traced_.cpu_us_per_op.size() >= (args_.trace ? want : 0);
    return measured_s_ >= args_.seconds &&
           (done || measured_s_ >= 4 * args_.seconds) &&
           (!args_.trace || round_ % 2 == 0);
  };
  while (failure_.empty() && !enough()) {
    if (args_.trace) set_instruments(round_ % 2 == 1);
    round();
    ++round_;
    if (!args_.trace && plain_.cpu_us_per_op.size() == metric_rounds()) {
      rss_mb_ = peak_rss_mb();
    }
  }
  if (args_.trace) set_instruments(false);
  if (failure_.empty()) {
    final_checks();
  } else {
    net_->drain();
  }
  if (!failure_.empty()) {
    std::fprintf(stderr, "e2ebench %s: check failed: %s\n", spec_.name.c_str(),
                 failure_.c_str());
  }
  const std::vector<Metric> metrics =
      args_.trace ? layer_metrics() : end_to_end_metrics();
  net_->stop();
  print_result(metrics);
  return failure_.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  e2e::Bench bench(e2e::make_spec(args.workload, args.small), args);
  return bench.run();
}
