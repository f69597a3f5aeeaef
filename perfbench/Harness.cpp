//===- Harness.cpp - Timing, statistics, spans and output for perfbench ----===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstring>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB.
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P * static_cast<double>(Values.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

void logSeries(const std::string &Name, const std::vector<double> &Values) {
  std::fprintf(stderr, "perfbench: %s:", Name.c_str());
  for (double V : Values)
    std::fprintf(stderr, " %.6g", V);
  std::fprintf(stderr, "\n");
}

void DigestBuf::consume() {
  const char *P = pbase();
  size_t N = static_cast<size_t>(pptr() - pbase());
  Bytes += N;
  // Eight bytes at a time: the digest only has to tell two byte streams
  // apart, and byte-at-a-time hashing would cost a visible share of the
  // timed write.
  for (; N >= 8; P += 8, N -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    Hash = (Hash ^ W) * 1099511628211ULL;
  }
  for (; N; ++P, --N)
    Hash = (Hash ^ static_cast<unsigned char>(*P)) * 1099511628211ULL;
  setp(Buf, Buf + sizeof(Buf));
}

DigestBuf::int_type DigestBuf::overflow(int_type C) {
  consume();
  if (!traits_type::eq_int_type(C, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(C);
    pbump(1);
  }
  return traits_type::not_eof(C);
}

int DigestBuf::sync() {
  consume();
  return 0;
}

uint64_t DigestBuf::size() {
  consume();
  return Bytes;
}

uint64_t DigestBuf::digest() {
  consume();
  return Hash;
}

void StealMeter::read(uint64_t &Steal, uint64_t &Total) {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  Steal = Total = 0;
  uint64_t V = 0;
  for (int Column = 0; Column < 8 && In >> V; ++Column) {
    Total += V;
    if (Column == 7)
      Steal = V;
  }
}

double StealMeter::share() const {
  uint64_t Steal = 0, Total = 0;
  read(Steal, Total);
  return Total > Total0 ? static_cast<double>(Steal - Steal0) /
                              static_cast<double>(Total - Total0)
                        : 0.0;
}

unsigned usableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
}

void spinAllCores(double Seconds) {
  unsigned N = usableCores();
  auto Until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
  std::atomic<uint64_t> Sink{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&Sink, Until] {
      uint64_t X = 0;
      while (Clock::now() < Until)
        for (int K = 0; K < 1000; ++K)
          X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Sink.fetch_add(X, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
}

namespace {

/// The first "key : value" line of /proc/cpuinfo whose key is \p Key.
std::string cpuinfoField(const std::string &Key) {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Name = Line.substr(0, Colon);
    while (!Name.empty() && (Name.back() == ' ' || Name.back() == '\t'))
      Name.pop_back();
    if (Name != Key)
      continue;
    size_t Start = Line.find_first_not_of(' ', Colon + 1);
    return Start == std::string::npos ? "" : Line.substr(Start);
  }
  return "unknown";
}

} // namespace

std::string hostFingerprintJson() {
  std::string MHz = cpuinfoField("cpu MHz");
  std::ostringstream OS;
  OS << "{\"cpu_model\":" << jsonString(cpuinfoField("model name"))
     << ",\"cpu_mhz\":" << jsonString(MHz)
     << ",\"usable_cores\":" << usableCores()
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << jsonString(std::string("gcc ") + __VERSION__)
     << "}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int Tracer::open(std::string Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Cpu0 = processCpuSeconds();
  S.T0 = since(Epoch);
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size()) - 1;
  Open.push_back(Id);
  return Id;
}

void Tracer::close(int Id) {
  if (!Enabled || Id < 0)
    return;
  Span &S = Spans[static_cast<size_t>(Id)];
  S.T1 = since(Epoch);
  S.Cpu1 = processCpuSeconds();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::vector<double> Tracer::walls(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.wall());
  return Out;
}

double Tracer::totalWall(const std::string &Name) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += S.wall();
  return Sum;
}

std::vector<double> Tracer::childWalls() const {
  std::vector<double> ChildWall(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildWall[static_cast<size_t>(S.Parent)] += S.wall();
  return ChildWall;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::vector<double> ChildWall = childWalls();
  std::ofstream Out(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":" << jsonString(S.Name)
        << ",\"parent\":" << S.Parent << ",\"start_s\":" << jsonNumber(S.T0)
        << ",\"end_s\":" << jsonNumber(S.T1)
        << ",\"self_s\":" << jsonNumber(S.wall() - ChildWall[I])
        << ",\"cpu_s\":" << jsonNumber(S.cpu()) << "}\n";
  }
  return static_cast<bool>(Out);
}

std::string Tracer::selfTimeTable() const {
  std::vector<double> ChildWall = childWalls();
  struct Row {
    size_t Count = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Row &R = Rows[Spans[I].Name];
    ++R.Count;
    R.Total += Spans[I].wall();
    R.Self += Spans[I].wall() - ChildWall[I];
  }
  std::ostringstream OS;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-32s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  OS << Buf;
  for (const auto &[Name, R] : Rows) {
    std::snprintf(Buf, sizeof(Buf), "%-32s %8zu %12.6f %12.6f\n",
                  Name.c_str(), R.Count, R.Total, R.Self);
    OS << Buf;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

std::string jsonNumber(double X) {
  if (!std::isfinite(X))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out + "\"";
}

std::string metricsJson(const std::map<std::string, Metric> &Metrics) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    if (!First)
      Out += ", ";
    First = false;
    Out += jsonString(Name) + ": {\"value\": " + jsonNumber(M.Value) +
           ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  return Out + "}";
}

} // namespace perfbench
