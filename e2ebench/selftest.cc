// Self-test of the benchmark's checker: a clean record passes, and each
// planted fault (a lost delivery, a duplicate, a mover live at two brokers)
// must fail the check. Exits 0 only if every case behaves.
//
//   .bench_build/e2ebench/e2ebench_selftest
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "inputs.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

}  // namespace

int main() {
  using e2e::Delivery;
  using e2e::Pair;

  // Two publications: 1 matches clients 10 and 11, 2 matches client 10.
  const std::vector<Pair> expected = {{1, 10}, {1, 11}, {2, 10}};
  const std::vector<Delivery> clean = {{10, 1, 0}, {11, 1, 0}, {10, 2, 0}};

  expect(e2e::check_deliveries(expected, clean).ok(),
         "every expected pair delivered once passes");

  std::vector<Delivery> lost = clean;
  lost.pop_back();
  const auto l = e2e::check_deliveries(expected, lost);
  expect(!l.ok() && l.lost == 1 && l.failed_pubs == 1,
         "a planted lost delivery fails");

  std::vector<Delivery> dup = clean;
  dup.push_back({11, 1, 5});
  const auto d = e2e::check_deliveries(expected, dup);
  expect(!d.ok() && d.duplicated == 1 && d.failed_pubs == 1,
         "a planted duplicate fails");

  std::vector<Delivery> stray = clean;
  stray.push_back({12, 2, 5});
  const auto s = e2e::check_deliveries(expected, stray);
  expect(!s.ok() && s.unexpected == 1, "a delivery nobody subscribed to fails");

  const std::map<tmps::ClientId, tmps::BrokerId> at = {{10, 13}, {11, 1}};
  expect(e2e::check_placement(at, {{10, {13}}, {11, {1}}}).empty(),
         "movers with one live copy where their last movement named pass");
  expect(!e2e::check_placement(at, {{10, {1, 13}}, {11, {1}}}).empty(),
         "a mover live at two brokers fails");
  expect(!e2e::check_placement(at, {{11, {1}}}).empty(),
         "a mover with no live copy fails");
  expect(!e2e::check_placement(at, {{10, {1}}, {11, {1}}}).empty(),
         "a mover live at the wrong broker fails");

  // The benchmark's interval arithmetic: a family root matches every point.
  std::mt19937_64 rng(3);
  const auto pop = e2e::Population::make(2, 1, rng);
  bool roots_match = true;
  for (std::int64_t x = 0; x <= e2e::kSpaceHi; x += 250) {
    roots_match = roots_match && pop.match_count({0, x, 6}) >= 1;
  }
  expect(roots_match, "every publication matches at least its family root");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
