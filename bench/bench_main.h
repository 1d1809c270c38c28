// Custom main for the google-benchmark micro benches.
//
// benchmark::Initialize() aborts on flags it does not recognise, so our
// --telemetry-out=<file> flag must be stripped from argv before it runs. On exit the
// accumulated process telemetry is written to that file as JSON (see
// common/telemetry.h::ToJson); scripts/bench_gate.py consumes it in CI to assert that
// must-be-zero counters (dropped frames, channel rejects, warnings) stayed zero.
//
// The benchmark JSON's context carries the library's build stamp (telemetry::Build) as
// deta_build_type and deta_cxx_flags; scripts/bench_snapshot.py copies it into each
// snapshot.
#ifndef DETA_BENCH_BENCH_MAIN_H_
#define DETA_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "common/telemetry.h"

#define DETA_BENCH_MAIN()                                                        \
  int main(int argc, char** argv) {                                              \
    std::string telemetry_out =                                                  \
        ::deta::telemetry::ConsumeTelemetryFlag(&argc, argv);                    \
    ::deta::telemetry::BuildStamp build = ::deta::telemetry::Build();            \
    ::benchmark::AddCustomContext("deta_build_type", build.type);                \
    ::benchmark::AddCustomContext("deta_cxx_flags", build.cxx_flags);            \
    ::benchmark::Initialize(&argc, argv);                                        \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;          \
    ::benchmark::RunSpecifiedBenchmarks();                                       \
    ::benchmark::Shutdown();                                                     \
    if (!telemetry_out.empty()) {                                                \
      if (!::deta::telemetry::WriteJsonFile(::deta::telemetry::Snapshot(),       \
                                            telemetry_out)) {                    \
        return 1;                                                                \
      }                                                                          \
      std::fprintf(stderr, "telemetry written to %s\n", telemetry_out.c_str());  \
    }                                                                            \
    return 0;                                                                    \
  }

#endif  // DETA_BENCH_BENCH_MAIN_H_
