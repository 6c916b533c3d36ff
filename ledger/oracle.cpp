// Brute-force oracles of the cost ledger, plus the shared helpers. Scores
// are plain sequential dot products over the benchmark's own copy of the
// data, never the program's indexes or kernels.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <iostream>
#include <random>
#include <thread>

#include "data/generators.h"
#include "ledger.h"

namespace ledger {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double ThreadCpuSeconds() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Log(const std::string& line) { std::cerr << "[ledger] " << line << "\n"; }

void ReportEndToEnd(const std::vector<RoundFigures>& rounds, Report* report) {
  auto median_over = [&](auto f) {
    std::vector<double> v;
    for (const RoundFigures& r : rounds) v.push_back(f(r));
    return Median(v);
  };
  auto q = [&](double p, std::vector<double> RoundFigures::*field) {
    return median_over([&](const RoundFigures& r) { return Quantile(r.*field, p); });
  };
  report->Set("setup_s", median_over([](const RoundFigures& r) { return r.setup_s; }));
  report->Set("updates_per_s", median_over([](const RoundFigures& r) { return r.updates_per_s; }));
  report->Set("insert_us_p50", q(0.50, &RoundFigures::insert_us));
  report->Set("insert_us_p99", q(0.99, &RoundFigures::insert_us));
  report->Set("delete_us_p50", q(0.50, &RoundFigures::delete_us));
  report->Set("delete_us_p999", q(0.999, &RoundFigures::delete_us));
  report->Set("visible_us_p50", q(0.50, &RoundFigures::all_us));
  report->Set("visible_us_p99", q(0.99, &RoundFigures::all_us));
  std::vector<double> reads, regrets;
  for (const RoundFigures& r : rounds) {
    reads.insert(reads.end(), r.fresh_read_us.begin(), r.fresh_read_us.end());
    regrets.insert(regrets.end(), r.regrets.begin(), r.regrets.end());
  }
  report->Set("fresh_read_us_p50", Quantile(reads, 0.50));
  report->Set("regret_ratio", Mean(regrets));
}

namespace {

double DotRow(const Point& u, const double* row) {
  double s = 0.0;
  for (size_t j = 0; j < u.size(); ++j) s += u[j] * row[j];
  return s;
}

/// k-th best of `scores` seen so far, kept as a descending array of size k.
class TopKScores {
 public:
  explicit TopKScores(int k) : best_(static_cast<size_t>(k), -1.0) {}
  void Offer(double s) {
    if (s <= best_.back()) return;
    size_t i = best_.size() - 1;
    while (i > 0 && best_[i - 1] < s) {
      best_[i] = best_[i - 1];
      --i;
    }
    best_[i] = s;
  }
  /// 0 when fewer than k scores were offered (the maintainer's convention).
  double KthOrZero() const { return std::max(best_.back(), 0.0); }

 private:
  std::vector<double> best_;
};

}  // namespace

std::vector<double> OmegaK(const PointSet& data, const std::vector<int>& live,
                           const std::vector<Point>& vecs, int k) {
  // Vectors are scored kBlock at a time from a transposed copy, so each row
  // is loaded once per block; every score still sums over attributes in
  // order, exactly as DotRow does.
  constexpr size_t kBlock = 8;
  const size_t dim = static_cast<size_t>(data.dim());
  const size_t num_blocks = (vecs.size() + kBlock - 1) / kBlock;
  std::vector<double> out(vecs.size(), 0.0);
  const size_t workers = std::min<size_t>(
      4, std::max<size_t>(1, std::thread::hardware_concurrency()));
  auto work = [&](size_t w) {
    std::vector<double> vt(dim * kBlock);
    for (size_t b = w; b < num_blocks; b += workers) {
      const size_t first = b * kBlock;
      const size_t count = std::min(kBlock, vecs.size() - first);
      std::fill(vt.begin(), vt.end(), 0.0);
      for (size_t v = 0; v < count; ++v) {
        for (size_t j = 0; j < dim; ++j) vt[j * kBlock + v] = vecs[first + v][j];
      }
      std::vector<TopKScores> top(kBlock, TopKScores(k));
      for (int id : live) {
        const double* row = data.Row(id);
        double acc[kBlock] = {};
        for (size_t j = 0; j < dim; ++j) {
          for (size_t v = 0; v < kBlock; ++v) acc[v] += vt[j * kBlock + v] * row[j];
        }
        for (size_t v = 0; v < count; ++v) top[v].Offer(acc[v]);
      }
      for (size_t v = 0; v < count; ++v) out[first + v] = top[v].KthOrZero();
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
  work(0);
  for (auto& t : threads) t.join();
  return out;
}

std::string CheckCoverage(const PointSet& data, const std::vector<int>& live,
                          const std::vector<Point>& utilities, int m, int k,
                          double eps, const std::vector<int>& result) {
  if (m < 1 || m > static_cast<int>(utilities.size())) {
    return "sample size m=" + std::to_string(m) + " outside [1, M]";
  }
  const std::vector<Point> prefix(utilities.begin(), utilities.begin() + m);
  const std::vector<double> omega = OmegaK(data, live, prefix, k);
  for (int i = 0; i < m; ++i) {
    const double bar = (1.0 - eps) * omega[static_cast<size_t>(i)];
    double best = -1.0;
    for (int q : result) best = std::max(best, DotRow(prefix[i], data.Row(q)));
    if (best < bar - 1e-12 * std::abs(bar)) {
      return "utility " + std::to_string(i) + " uncovered: best " +
             std::to_string(best) + " < (1-eps)*omega_k " +
             std::to_string(bar);
    }
  }
  return "";
}

std::string CheckResultSet(const std::vector<int>& result,
                           const std::vector<int>& live_sorted, int budget) {
  if (static_cast<int>(result.size()) > budget) {
    return "|Q|=" + std::to_string(result.size()) + " exceeds budget " +
           std::to_string(budget);
  }
  for (int q : result) {
    if (!std::binary_search(live_sorted.begin(), live_sorted.end(), q)) {
      return "result id " + std::to_string(q) + " is not live";
    }
  }
  return "";
}

double MaxRegretRatio(const PointSet& data, const std::vector<int>& live,
                      const std::vector<int>& result,
                      const std::vector<Point>& directions, int k) {
  const std::vector<double> omega = OmegaK(data, live, directions, k);
  double worst = 0.0;
  for (size_t v = 0; v < directions.size(); ++v) {
    if (omega[v] <= 0.0) continue;
    double best = 0.0;
    for (int q : result) best = std::max(best, DotRow(directions[v], data.Row(q)));
    worst = std::max(worst, 1.0 - best / omega[v]);
  }
  return worst;
}

std::vector<Point> HeldOutDirections(int count, int dim, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eedd1e5c0ffeeULL);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int>(out.size()) < count) {
    Point v(static_cast<size_t>(dim));
    double norm2 = 0.0;
    for (double& x : v) {
      x = std::abs(gauss(rng));
      norm2 += x * x;
    }
    if (norm2 < 1e-18) continue;
    for (double& x : v) x /= std::sqrt(norm2);
    out.push_back(std::move(v));
  }
  return out;
}

std::string OracleSelfTest() {
  const int n = 2000, d = 6;
  const PointSet data = fdrms::GenerateAntiCor(n, d, 7);
  fdrms::FdRmsOptions opt;
  opt.k = 1;
  opt.r = 10;
  opt.eps = 0.01;
  opt.max_utilities = 256;
  fdrms::FdRms algo(d, opt);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < n / 2; ++i) initial.emplace_back(i, data.Get(i));
  if (!algo.Initialize(initial).ok()) return "self-test Initialize failed";
  for (int i = n / 2; i < n; ++i) {
    if (!algo.Insert(i, data.Get(i)).ok()) return "self-test Insert failed";
  }
  for (int i = 0; i < n; i += 3) {
    if (!algo.Delete(i).ok()) return "self-test Delete failed";
  }
  std::vector<int> live;
  for (int i = 0; i < n; ++i) {
    if (i % 3 != 0) live.push_back(i);
  }
  const auto& utilities = algo.topk().utilities();
  const int m = algo.current_m();
  const std::vector<int> q = algo.Result();

  if (std::string e = CheckCoverage(data, live, utilities, m, opt.k, opt.eps, q);
      !e.empty()) {
    return "coverage oracle rejects a correct result: " + e;
  }
  if (std::string e = CheckResultSet(q, live, opt.r); !e.empty()) {
    return "result-set oracle rejects a correct result: " + e;
  }
  // Corruption 1: drop every member of Q that covers universe utility 0.
  const double bar = (1.0 - opt.eps) * OmegaK(data, live, {utilities[0]}, opt.k)[0];
  std::vector<int> uncovered;
  for (int id : q) {
    if (DotRow(utilities[0], data.Row(id)) < bar) uncovered.push_back(id);
  }
  if (uncovered.size() == q.size()) return "self-test: no member covers u_0";
  if (CheckCoverage(data, live, utilities, m, opt.k, opt.eps, uncovered).empty()) {
    return "coverage oracle accepts Q without u_0's covering tuple";
  }
  // Corruption 2: a deleted id in Q.
  std::vector<int> with_dead = q;
  with_dead.back() = 0;  // row 0 was deleted above
  if (CheckResultSet(with_dead, live, opt.r).empty()) {
    return "result-set oracle accepts a deleted id";
  }
  // Corruption 3: Q over budget.
  std::vector<int> over = live;
  over.resize(static_cast<size_t>(opt.r) + 1);
  if (CheckResultSet(over, live, opt.r).empty()) {
    return "result-set oracle accepts |Q| > r";
  }
  // The whole live set has zero regret; the corrupted Q exceeds eps along
  // u_0.
  std::vector<Point> dirs = HeldOutDirections(200, d, 11);
  if (MaxRegretRatio(data, live, live, dirs, opt.k) != 0.0) {
    return "regret oracle: the live set itself shows regret";
  }
  dirs.push_back(utilities[0]);
  if (MaxRegretRatio(data, live, uncovered, dirs, opt.k) <= opt.eps) {
    return "regret oracle: Q without u_0's cover shows regret <= eps";
  }
  return "";
}

}  // namespace ledger
