//===- Harness.h - Timing, statistics, spans and output for perfbench ------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement plumbing shared by the three perfbench workloads:
/// wall and process-CPU clocks, order statistics, the in-memory span
/// recorder of the traced run, the warm start, the host fingerprint, and
/// the result record that becomes the final JSON line.
///
/// Spans are recorded only around calls *into* PIGEON's layers from the
/// benchmark's own code; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_PERFBENCH_HARNESS_H
#define PIGEON_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double since(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Seconds between two time points.
inline double between(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// CPU time consumed by every thread of this process, in seconds.
double processCpuSeconds();

/// Peak resident set of this process, in MB (10^6 bytes).
double peakRssMb();

/// Median of \p Values (mean of the middle two for even counts); NaN when
/// empty.
double median(std::vector<double> Values);

/// Nearest-rank percentile \p P in [0, 1] of \p Values; NaN when empty.
double percentile(std::vector<double> Values, double P);

/// Logs every sample of one timed series to standard error, so a run's
/// spread can be read next to its median.
void logSeries(const std::string &Name, const std::vector<double> &Values);

/// A write sink that keeps only the number of bytes written and a 64-bit
/// digest of them. The ingest workload writes its contexts artifacts here:
/// the serialization runs in full, but no buffer of the artifact's size is
/// held, so peak memory shows the program's own structures rather than
/// where a growing string happened to double its capacity.
class DigestBuf : public std::streambuf {
public:
  DigestBuf() { setp(Buf, Buf + sizeof(Buf)); }
  uint64_t size();
  uint64_t digest();

protected:
  int_type overflow(int_type C) override;
  int sync() override;

private:
  /// Folds the buffered bytes into the digest. Chunks are always whole
  /// buffers except the last, so the digest depends only on the bytes.
  void consume();
  char Buf[1 << 16];
  uint64_t Hash = 1469598103934665603ULL;
  uint64_t Bytes = 0;
};

/// Share of all CPU time on this host that the hypervisor gave to other
/// guests (the `steal` column of /proc/stat) since construction. A run
/// whose figures stand out can be read against it: the host, not the
/// code, took the time.
class StealMeter {
public:
  StealMeter() { read(Steal0, Total0); }
  double share() const;

private:
  static void read(uint64_t &Steal, uint64_t &Total);
  uint64_t Steal0 = 0, Total0 = 0;
};

/// Keeps every usable core busy for \p Seconds. Idle vCPUs of a VM take
/// tens of milliseconds to come online; a timed parallel region that
/// starts on cold cores times the host, not the code.
void spinAllCores(double Seconds);

/// Number of cores this process may run on (its affinity mask).
unsigned usableCores();

/// One JSON object describing the host and the build, printed on every
/// run: CPU model, clock, usable cores, build type and compiler.
std::string hostFingerprintJson();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call into a layer. Parent is the index of the enclosing span
/// (-1 at top level); Cpu* are process CPU seconds, so a span's busy
/// cores are (Cpu1 - Cpu0) / (T1 - T0).
struct Span {
  std::string Name;
  int Parent = -1;
  double T0 = 0, T1 = 0;
  double Cpu0 = 0, Cpu1 = 0;
  double wall() const { return T1 - T0; }
  double cpu() const { return Cpu1 - Cpu0; }
};

/// In-memory span recorder of the traced run. Recording is from one
/// thread only (the benchmark's driving thread). When disabled every
/// call is a no-op that reads no clock, so the untraced run pays nothing.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span under the innermost open span. \returns its index, or
  /// -1 when disabled.
  int open(std::string Name);
  /// Closes span \p Id (must be the innermost open one).
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Wall seconds of every closed span named \p Name, in recording order.
  std::vector<double> walls(const std::string &Name) const;
  /// Sum of wall seconds over spans named \p Name.
  double totalWall(const std::string &Name) const;

  /// Writes every span as one JSON line (name, start, end, parent, self).
  bool writeJsonl(const std::string &Path) const;
  /// Per-name count, total and self seconds, one line per name. A span's
  /// self time is its wall time minus that of its direct children.
  std::string selfTimeTable() const;

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, std::string Name) : T(T), Id(T.open(std::move(Name))) {}
    ~Scope() { T.close(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

private:
  /// Wall seconds of each span's direct children, summed per span.
  std::vector<double> childWalls() const;

  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything one run reports. Metrics go to the final JSON line; Detail
/// holds the workload's own figures (printed on a `perfbench.detail`
/// line), Samples the sample count behind each timing.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, Metric> Detail;
  std::map<std::string, double> Samples;
  std::vector<std::string> Errors;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void detail(const std::string &Name, double Value, const std::string &Unit) {
    Detail[Name] = {Value, Unit};
  }
  /// Records a failed correctness check.
  void fail(const std::string &What) {
    Correct = false;
    if (Errors.size() < 20)
      Errors.push_back(What);
  }
};

/// A JSON number with all its digits (NaN and infinities become null).
std::string jsonNumber(double X);
/// A JSON string literal.
std::string jsonString(const std::string &S);
/// {"name": {"value": v, "unit": u}, ...}
std::string metricsJson(const std::map<std::string, Metric> &Metrics);

/// Options every workload receives.
struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the run's files (saved bundle, span dump); inside the
  /// checkout's build directory.
  std::string WorkDir;
};

/// Median set-up time over this many set-ups per run.
inline constexpr int SetupRepeats = 3;

} // namespace perfbench

#endif // PIGEON_PERFBENCH_HARNESS_H
