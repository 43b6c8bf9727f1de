// The benchmark's output checks, kept free of the transports so that the
// self-test (selftest.cc) can feed them planted faults.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace e2e {

/// One delivery as the benchmark's sink saw it.
struct Delivery {
  tmps::ClientId client = tmps::kNoClient;
  std::uint32_t seq = 0;  ///< publication sequence number
  std::int64_t t_ns = 0;  ///< steady-clock time of delivery
};

/// (publication sequence number, client) pairs.
using Pair = std::pair<std::uint32_t, tmps::ClientId>;

struct DeliveryCheck {
  std::uint64_t expected = 0;
  std::uint64_t lost = 0;        ///< expected pairs never delivered
  std::uint64_t duplicated = 0;  ///< extra copies of an expected pair
  std::uint64_t unexpected = 0;  ///< deliveries of a pair that must not exist
  std::uint64_t failed_pubs = 0;  ///< publications with any of the above
  std::string first_error;

  bool ok() const { return lost == 0 && duplicated == 0 && unexpected == 0; }
};

/// Every expected (publication, subscriber) pair must be delivered exactly
/// once and nothing else may be delivered.
inline DeliveryCheck check_deliveries(std::vector<Pair> expected,
                                      const std::vector<Delivery>& got) {
  std::vector<Pair> seen;
  seen.reserve(got.size());
  for (const Delivery& d : got) seen.emplace_back(d.seq, d.client);
  std::sort(expected.begin(), expected.end());
  std::sort(seen.begin(), seen.end());

  DeliveryCheck r;
  r.expected = expected.size();
  std::uint32_t last_failed = 0;
  const auto note = [&](const char* what, const Pair& p) {
    if (r.failed_pubs == 0 || p.first != last_failed) ++r.failed_pubs;
    last_failed = p.first;
    if (r.first_error.empty()) {
      r.first_error = std::string(what) + ": publication " +
                      std::to_string(p.first) + " at client " +
                      std::to_string(p.second);
    }
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < expected.size() || j < seen.size()) {
    if (j == seen.size() || (i < expected.size() && expected[i] < seen[j])) {
      ++r.lost;
      note("lost", expected[i]);
      ++i;
    } else if (i == expected.size() || seen[j] < expected[i]) {
      // Either a pair nobody expects or another copy of one already matched.
      const bool repeat = j > 0 && seen[j - 1] == seen[j];
      if (repeat && i > 0 && expected[i - 1] == seen[j]) {
        ++r.duplicated;
        note("duplicate", seen[j]);
      } else {
        ++r.unexpected;
        note("unexpected", seen[j]);
      }
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return r;
}

/// Where each mover must end: the target of its last committed movement.
/// `live` lists, per client, every broker that hosts a copy of it.
inline std::string check_placement(
    const std::map<tmps::ClientId, tmps::BrokerId>& expected_at,
    const std::map<tmps::ClientId, std::vector<tmps::BrokerId>>& live) {
  for (const auto& [client, at] : expected_at) {
    const auto it = live.find(client);
    const std::size_t copies = it == live.end() ? 0 : it->second.size();
    if (copies != 1) {
      return "mover " + std::to_string(client) + " has " +
             std::to_string(copies) + " live copies";
    }
    if (it->second.front() != at) {
      return "mover " + std::to_string(client) + " lives at broker " +
             std::to_string(it->second.front()) + ", its last movement named " +
             std::to_string(at);
    }
  }
  return {};
}

}  // namespace e2e
