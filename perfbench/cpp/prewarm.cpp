// perfbench-prewarm: makes sure one member archive is in the zoo cache.
//
//   perfbench-prewarm <benchmark> <prep-spec>
//
// Trains and publishes the network on a cache miss (the benchmark itself
// never trains: it fails fast on a missing archive). run.py starts one of
// these per missing archive, several at a time, before the first run.
#include <cstdio>
#include <exception>

#include "zoo/zoo.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench-prewarm <benchmark> <prep-spec>\n");
    return 2;
  }
  try {
    const pgmr::zoo::Benchmark& bm = pgmr::zoo::find_benchmark(argv[1]);
    pgmr::zoo::trained_network(bm, argv[2]);
    std::printf("%s\n", pgmr::zoo::archive_path(bm, argv[2]).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-prewarm: %s\n", e.what());
    return 1;
  }
  return 0;
}
