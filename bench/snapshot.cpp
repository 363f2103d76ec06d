// Writes the committed BENCH_*.json snapshots.
//
// Usage: snapshot OUT_DIR [NAME...]
//
// Runs the named snapshots (all of them by default) and writes each to
// OUT_DIR/BENCH_<name>.json; OUT_DIR must exist. Exits non-zero on an
// unknown name, a failed gate, or a failed write. Regenerate the
// committed files with `./build/bench/snapshot .` from the repo root;
// the `bench.snapshots` ctest byte-compares a fresh set against them.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "snapshot.hpp"

namespace {

using namespace vcfr::bench;

struct Entry {
  const char* name;
  const char* file;
  std::string (*make)();
};

constexpr Entry kManifest[] = {
    {"fleet", "BENCH_fleet.json", fleet_snapshot},
    {"hotpath", "BENCH_hotpath.json", hotpath_snapshot},
    {"serve", "BENCH_serve.json", serve_snapshot},
    {"trace", "BENCH_trace.json", trace_snapshot},
    {"scale", "BENCH_scale.json", scale_snapshot},
    {"rerand", "BENCH_rerand.json", rerand_snapshot},
    {"leaks", "BENCH_leaks.json", leaks_snapshot},
    {"attrib", "BENCH_attrib.json", attrib_snapshot},
    {"faultcamp", "BENCH_faultcamp.json", faultcamp_snapshot},
    {"paper", "BENCH_paper.json", paper_snapshot},
};

const Entry* find(const std::string& name) {
  for (const Entry& e : kManifest) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return !out.fail();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: snapshot OUT_DIR [NAME...]\nnames:");
    for (const Entry& e : kManifest) std::fprintf(stderr, " %s", e.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string out_dir = argv[1];

  std::vector<const Entry*> selected;
  for (int i = 2; i < argc; ++i) {
    const Entry* e = find(argv[i]);
    if (e == nullptr) {
      std::fprintf(stderr, "snapshot: unknown name '%s'\n", argv[i]);
      return 2;
    }
    selected.push_back(e);
  }
  if (selected.empty()) {
    for (const Entry& e : kManifest) selected.push_back(&e);
  }

  for (const Entry* e : selected) {
    std::string text;
    try {
      text = e->make();
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "snapshot: %s: FAIL: %s\n", e->name, ex.what());
      return 1;
    }
    const std::string path = out_dir + "/" + e->file;
    if (!write_file(path, text)) {
      std::fprintf(stderr, "snapshot: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s -> %s\n", e->name, path.c_str());
  }
  return 0;
}
