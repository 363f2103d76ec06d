// The committed BENCH_*.json snapshots, one function per file.
//
// Each function runs a pinned configuration and returns the file's full
// text (trailing newline included). Every byte is simulated, so the text
// is identical on every host and build type; `bench/snapshot` writes it
// and the `bench.snapshots` ctest byte-compares it against the committed
// copy. A snapshot that doubles as an acceptance gate throws
// `std::runtime_error` naming the failed condition instead of returning.
//
// Host time is not measured here: perfbench/ is the host-time benchmark.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace vcfr::bench {

std::string fleet_snapshot();      // emit_bench_json.cpp
std::string hotpath_snapshot();    // emit_bench_json.cpp
std::string serve_snapshot();      // serve.cpp
std::string trace_snapshot();      // serve.cpp
std::string scale_snapshot();      // scale.cpp
std::string rerand_snapshot();     // rerand.cpp
std::string leaks_snapshot();      // leaks.cpp
std::string attrib_snapshot();     // attrib.cpp
std::string faultcamp_snapshot();  // faultcamp.cpp
std::string paper_snapshot();      // paper.cpp

/// Fails a snapshot's gate: throws std::runtime_error with the
/// printf-formatted message.
[[noreturn, gnu::format(printf, 1, 2)]] inline void gate_failed(
    const char* fmt, ...) {
  char msg[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, args);
  va_end(args);
  throw std::runtime_error(msg);
}

}  // namespace vcfr::bench
