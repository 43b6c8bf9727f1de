// Seeded inputs of the live benchmark and the benchmark's own matching
// arithmetic. Nothing here asks the program which subscriber a publication
// matches: the expected delivery set is computed from the intervals below,
// and the program's deliveries are checked against it.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "pubsub/filter.h"

namespace e2e {

using tmps::BrokerId;
using tmps::ClientId;

/// Leaf brokers of the paper's 14-broker overlay (Fig. 6); every client lives
/// at one of them.
inline constexpr std::array<BrokerId, 8> kEdgeBrokers = {1, 2, 6, 7,
                                                         10, 11, 13, 14};
/// The paper's publisher brokers.
inline constexpr std::array<BrokerId, 4> kPublisherBrokers = {6, 7, 10, 11};
/// The paper's 5-hop move pairs: 1<->13 and 2<->14.
inline constexpr std::array<std::pair<BrokerId, BrokerId>, 2> kMoveLanes = {
    {{1, 13}, {2, 14}}};

inline constexpr std::int64_t kSpaceHi = 10000;

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool contains(std::int64_t x) const { return lo <= x && x <= hi; }
};

/// A Fig. 7 "covered" family: member 0 spans the content space and covers
/// nine pairwise-disjoint leaves, one per 1000-wide slot, whose offset and
/// width are drawn from the seed.
struct Family {
  std::int64_t group = 0;
  std::array<Interval, 10> members{};
};

inline Family make_family(std::int64_t group, std::mt19937_64& rng) {
  Family f;
  f.group = group;
  f.members[0] = {0, kSpaceHi};
  std::uniform_int_distribution<std::int64_t> offset(0, 400);
  std::uniform_int_distribution<std::int64_t> width(100, 500);
  for (int i = 1; i < 10; ++i) {
    const std::int64_t lo = (i - 1) * 1000 + offset(rng);
    f.members[i] = {lo, lo + width(rng)};
  }
  return f;
}

/// The subscription filter of one family member, in the program's filter
/// language (class = STOCK, g = group, x in [lo, hi]).
inline tmps::Filter member_filter(const Family& f, int member) {
  const Interval iv = f.members[member];
  return tmps::Filter::build()
      .attr("class").eq("STOCK")
      .attr("g").eq(f.group)
      .attr("x").ge(iv.lo).le(iv.hi);
}

struct Subscriber {
  ClientId client = tmps::kNoClient;
  BrokerId home = 0;
  int family = 0;
  int member = 0;
};

/// One publication: family index, point in the content space, origin broker.
struct PubSpec {
  int family = 0;
  std::int64_t x = 0;
  BrokerId origin = 0;
};

/// The stationary population: `replicas` clients per family member, each at
/// an edge broker drawn from the seed.
struct Population {
  std::vector<Family> families;
  std::vector<Subscriber> subscribers;
  /// Subscriber indices per family, for the expected-delivery computation.
  std::vector<std::vector<std::size_t>> by_family;

  static Population make(int families, int replicas, std::mt19937_64& rng) {
    Population p;
    std::uniform_int_distribution<std::size_t> edge(0, kEdgeBrokers.size() - 1);
    for (int g = 0; g < families; ++g) {
      p.families.push_back(make_family(g, rng));
    }
    p.by_family.resize(static_cast<std::size_t>(families));
    ClientId next = 1;
    for (int g = 0; g < families; ++g) {
      for (int r = 0; r < replicas; ++r) {
        for (int m = 0; m < 10; ++m) {
          p.by_family[static_cast<std::size_t>(g)].push_back(
              p.subscribers.size());
          p.subscribers.push_back({next++, kEdgeBrokers[edge(rng)], g, m});
        }
      }
    }
    return p;
  }

  /// Clients whose interval contains the publication's point.
  template <class Fn>
  void for_each_match(const PubSpec& pub, Fn&& fn) const {
    const Family& f = families[static_cast<std::size_t>(pub.family)];
    for (std::size_t i : by_family[static_cast<std::size_t>(pub.family)]) {
      const Subscriber& s = subscribers[i];
      if (f.members[static_cast<std::size_t>(s.member)].contains(pub.x)) {
        fn(s.client);
      }
    }
  }

  std::int32_t match_count(const PubSpec& pub) const {
    std::int32_t n = 0;
    for_each_match(pub, [&](ClientId) { ++n; });
    return n;
  }
};

/// Publications spread uniformly over families and the content space,
/// round-robin over the publisher brokers.
inline PubSpec make_pub(const Population& pop, std::uint64_t index,
                        std::mt19937_64& rng) {
  std::uniform_int_distribution<int> fam(
      0, static_cast<int>(pop.families.size()) - 1);
  std::uniform_int_distribution<std::int64_t> x(0, kSpaceHi);
  PubSpec p;
  p.family = fam(rng);
  p.x = x(rng);
  p.origin = kPublisherBrokers[index % kPublisherBrokers.size()];
  return p;
}

}  // namespace e2e
