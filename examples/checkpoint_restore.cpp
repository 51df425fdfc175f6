// checkpoint_restore — operational persistence for streaming matrices.
//
// A long-running collector must survive restarts without losing its
// accumulated traffic matrix or disturbing the cascade. This example
// streams, checkpoints the full hierarchy mid-stream (levels + cuts +
// statistics), "crashes", restores, and continues — then proves the
// final state is identical to an uninterrupted run: the same Σ Ai, the
// same depth and the same entries in every level. The stream outgrows
// its starting depth (the bottom passes next_cut() = 65,536 and a level
// goes in above it) before the checkpoint, whose bottom is then a list
// of chunks, and grows again after the restore.
#include <cstdio>
#include <sstream>

#include "gen/gen.hpp"
#include "hier/hier.hpp"

int main() {
  gen::PowerLawParams params;
  params.scale = 18;
  params.alpha = 0.5;
  params.seed = 99;
  const auto cuts = hier::CutPolicy::geometric(3, 1024, 8);

  // --- reference: uninterrupted run ---------------------------------
  gen::PowerLawGenerator gen_a(params);
  hier::HierMatrix<double> reference(params.dim, params.dim, cuts);
  for (int s = 0; s < 20; ++s) reference.update(gen_a.batch<double>(40000));

  // --- interrupted run -----------------------------------------------
  gen::PowerLawGenerator gen_b(params);  // identical stream
  hier::HierMatrix<double> collector(params.dim, params.dim, cuts);
  for (int s = 0; s < 10; ++s) collector.update(gen_b.batch<double>(40000));

  std::stringstream disk;  // stands in for a checkpoint file
  hier::checkpoint(disk, collector);
  std::printf("checkpoint written: %zu bytes after %llu updates "
              "(%zu levels, L1..L%zu entries:",
              disk.str().size(),
              static_cast<unsigned long long>(collector.stats().entries_appended),
              collector.num_levels(), collector.num_levels());
  for (std::size_t i = 0; i < collector.num_levels(); ++i)
    std::printf(" %zu", collector.level_entries(i));
  std::printf("; bottom in %zu chunks)\n",
              collector.chunks(collector.num_levels() - 1).slices().size());

  // simulate a crash: the collector object is discarded entirely.
  {
    auto restored = hier::restore<double>(disk);
    std::printf("restored: %llu updates on record, resuming stream...\n",
                static_cast<unsigned long long>(restored.stats().entries_appended));
    for (int s = 10; s < 20; ++s) restored.update(gen_b.batch<double>(40000));

    bool identical = gbx::equal(restored.snapshot(), reference.snapshot()) &&
                     restored.num_levels() == reference.num_levels();
    for (std::size_t i = 0; identical && i < reference.num_levels(); ++i)
      identical = restored.level_entries(i) == reference.level_entries(i);
    std::printf("depth %zu (starting depth %zu), restored %zu\n",
                reference.num_levels(), cuts.levels(), restored.num_levels());
    std::printf("final state vs uninterrupted run: %s\n",
                identical ? "IDENTICAL" : "DIVERGED");
    std::printf("entries streamed: %llu (reference %llu)\n",
                static_cast<unsigned long long>(restored.stats().entries_appended),
                static_cast<unsigned long long>(reference.stats().entries_appended));
    return identical ? 0 : 1;
  }
}
