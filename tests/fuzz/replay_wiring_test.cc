// Meta-test for the fuzz subsystem's wiring: every fuzz target discovered
// in fuzz/ must be registered for the corpus-replay regression gate and
// must have a non-empty seed corpus.
//
// The dual-build scheme (fuzz/CMakeLists.txt) only builds and replays
// targets that are explicitly registered with moche_add_fuzz_target; a
// forgotten registration or an empty corpus would silently drop a target
// from the default-matrix regression gate. moche-lint's fuzz-target rule
// enforces the same invariants at the source level — this test enforces
// them from inside ctest, so a build without Python still fails loudly.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

// Injected by tests/CMakeLists.txt; the repository source root.
const fs::path kFuzzDir = fs::path(MOCHE_SOURCE_DIR) / "fuzz";

std::vector<std::string> DiscoverTargets() {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(kFuzzDir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    constexpr const char kSuffix[] = "_fuzz.cc";
    constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (name.size() > kSuffixLen &&
        name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
      stems.push_back(name.substr(0, name.size() - 3));  // drop ".cc"
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ReplayWiringTest, FuzzDirectoryExists) {
  ASSERT_TRUE(fs::is_directory(kFuzzDir)) << kFuzzDir;
  EXPECT_TRUE(fs::is_regular_file(kFuzzDir / "replay_main.cc"));
  EXPECT_TRUE(fs::is_regular_file(kFuzzDir / "provider.h"));
  EXPECT_TRUE(fs::is_regular_file(kFuzzDir / "fuzz_target.h"));
}

TEST(ReplayWiringTest, AllNineTargetsPresent) {
  const std::vector<std::string> stems = DiscoverTargets();
  // Every target in fuzz/ today. Growing the set is fine; a target leaves
  // it only together with the code it fuzzes.
  for (const char* required :
       {"ks_statistic_fuzz", "streaming_ks_fuzz", "bounds_engine_fuzz",
        "explain_pipeline_fuzz", "drift_monitor_fuzz", "bench_json_fuzz",
        "parse_double_fuzz", "snapshot_fuzz", "sketch_fuzz"}) {
    EXPECT_TRUE(std::find(stems.begin(), stems.end(), required) !=
                stems.end())
        << "missing fuzz target " << required;
  }
}

TEST(ReplayWiringTest, EveryTargetIsRegisteredForReplay) {
  const std::string cmake = ReadFile(kFuzzDir / "CMakeLists.txt");
  for (const std::string& stem : DiscoverTargets()) {
    EXPECT_NE(cmake.find("moche_add_fuzz_target(" + stem), std::string::npos)
        << stem << " is not registered in fuzz/CMakeLists.txt — it will "
        << "neither build nor run as a corpus-replay regression test";
  }
}

TEST(ReplayWiringTest, EveryTargetHasANonEmptySeedCorpus) {
  for (const std::string& stem : DiscoverTargets()) {
    const fs::path corpus = kFuzzDir / "corpus" / stem;
    ASSERT_TRUE(fs::is_directory(corpus))
        << stem << " has no seed corpus directory";
    size_t seeds = 0;
    for (const auto& entry : fs::directory_iterator(corpus)) {
      if (entry.is_regular_file()) ++seeds;
    }
    EXPECT_GT(seeds, 0u) << stem << " has an empty seed corpus — its "
                         << "replay gate would test nothing";
  }
}

TEST(ReplayWiringTest, EveryTargetDefinesTheEntryPoint) {
  for (const std::string& stem : DiscoverTargets()) {
    const std::string source = ReadFile(kFuzzDir / (stem + ".cc"));
    EXPECT_NE(source.find("LLVMFuzzerTestOneInput"), std::string::npos)
        << stem << ".cc does not define the libFuzzer entry point";
  }
}

}  // namespace
