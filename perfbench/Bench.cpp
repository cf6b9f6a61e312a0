//===- Bench.cpp - Order statistics and the span ledger ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kb = 0;
      Fields >> Kb;
      return Kb / 1024.0;
    }
  return 0;
}

namespace {
/// Keeps the probe's result observable so its loops are not elided.
volatile uint64_t ProbeSink = 0;
} // namespace

double hostProbe() {
  static std::vector<uint64_t> Keys, Table, Work;
  static std::vector<uint32_t> Next;
  if (Keys.empty()) {
    Keys.resize(1 << 17);
    Table.resize(1 << 16);
    Work.resize(Keys.size());
    Next.resize(1 << 16);
    uint64_t X = 12345;
    for (uint64_t &K : Keys)
      K = X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    for (uint32_t I = 0; I < Next.size(); ++I)
      Next[I] = I;
    for (size_t I = Next.size(); I > 1; --I) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(Next[I - 1], Next[(X >> 33) % I]);
    }
  }
  auto Slot = [&](uint64_t K) {
    size_t H = (K * 0x9E3779B97F4A7C15ULL) >> 48;
    while (Table[H] && Table[H] != K)
      H = (H + 1) & (Table.size() - 1);
    return H;
  };
  Clock::time_point Start = Clock::now();
  uint64_t Acc = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::fill(Table.begin(), Table.end(), 0);
    for (size_t I = 0; I < 40000; ++I)
      Table[Slot(Keys[I] | 1)] = Keys[I] | 1;
    for (size_t I = 20000; I < 60000; ++I)
      Acc += Table[Slot(Keys[I] | 1)] != 0;
    uint32_t P = 0;
    for (int I = 0; I < 200000; ++I)
      P = Next[P];
    Acc += P;
    std::copy(Keys.begin(), Keys.end(), Work.begin());
    std::sort(Work.begin(), Work.end());
    Acc += Work[Rep];
  }
  double Seconds = secondsSince(Start);
  ProbeSink = Acc;
  return Seconds;
}

void Ledger::endPass() {
  std::map<std::string, double> Busy;
  for (const Span &S : Spans)
    Busy[S.Layer] += secondsBetween(S.Start, S.End);
  PassSeconds.push_back(std::move(Busy));
  PassCounts.push_back(std::move(Counts));
  Spans.clear();
  Counts.clear();
}

double Ledger::layerSeconds(const std::string &Layer) const {
  std::vector<double> V;
  for (const auto &Pass : PassSeconds) {
    auto It = Pass.find(Layer);
    V.push_back(It == Pass.end() ? 0.0 : It->second);
  }
  return median(V);
}

double Ledger::coveredSeconds() const {
  std::vector<double> V;
  for (const auto &Pass : PassSeconds) {
    double Sum = 0;
    for (const auto &[Layer, Seconds] : Pass)
      Sum += Seconds;
    V.push_back(Sum);
  }
  return median(V);
}

bool Ledger::countsRepeat() const {
  for (const auto &Pass : PassCounts)
    if (Pass != PassCounts.front())
      return false;
  return true;
}

uint64_t Ledger::passCount(const std::string &Name) const {
  if (PassCounts.empty())
    return 0;
  auto It = PassCounts.front().find(Name);
  return It == PassCounts.front().end() ? 0 : It->second;
}

} // namespace perfbench
