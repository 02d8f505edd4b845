// Checkpoint/resume orchestration (DESIGN.md §14).
//
// A checkpoint is replay-anchored: the blob carries the resolved
// ScenarioConfig (CFG0), the anchor and horizon (META), and the world's
// state oracle — named per-subsystem digests (DGST, ckpt::StateAccess).
// Resume rebuilds the world from the config, deterministically replays it to
// the anchor (the engine is byte-deterministic from a seed, so replay IS
// restoration), re-captures the digests, and verifies they equal the stored
// ones before the tail runs. Any divergence — a changed binary, a different
// env override, a nondeterminism bug — aborts resume with the list of
// differing subsystems and host components instead of silently producing a
// near-miss run. Checkpoints are taken at event boundaries only (the
// quiescent-boundary rule): continueUntil() stops between events, never
// inside one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"
#include "experiment/scenario.hpp"

namespace manet::experiment {
class World;
}

namespace manet::ckpt {

/// Captures a complete checkpoint blob of `world` at its current scheduler
/// time. The capture only reads raw state — it never perturbs the world's
/// future draws.
std::vector<std::uint8_t> capture(const experiment::World& world);

/// Rebuild + replay-to-anchor + verify; returns the world stopped at the
/// anchor. Throws Error (listing the differing digest names) when the
/// replayed state does not match the checkpoint exactly.
std::unique_ptr<experiment::World> resume(
    const std::vector<std::uint8_t>& blob);

/// The DGST section payload: a u64 entry count, then per entry the name
/// (u64 length + bytes) and the u64 value.
std::vector<std::uint8_t> encodeDigests(const StateDigests& digests);
StateDigests decodeDigests(const std::vector<std::uint8_t>& payload);

/// One line per differing world-level entry, and one per host listing its
/// differing components ("host 3: mac nextSeq"), capped at 32 lines; empty
/// when the two lists are equal.
std::vector<std::string> diffDigests(const StateDigests& stored,
                                     const StateDigests& replayed);

/// Raw blob file I/O (binary, whole-file). Throws Error on I/O failure.
void writeBlobFile(const std::string& path,
                   const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> readBlobFile(const std::string& path);

/// Where to anchor a mid-run checkpoint: an absolute simulated second, or a
/// fraction of the run's horizon (resolved once the horizon is known).
/// Exactly one of the two is >= 0 when active.
struct AnchorSpec {
  double seconds = -1.0;
  double fraction = -1.0;
  bool active() const { return seconds >= 0.0 || fraction >= 0.0; }
};

/// Parses "12.5" (seconds) or "50%" (fraction of horizon).
/// Throws Error on malformed input.
AnchorSpec parseAnchorSpec(const std::string& text);

/// The checkpoint-equivalence driver behind --checkpoint-at: runs `config`
/// to the anchor, captures, round-trips the blob through encode+decode
/// (always — even without a blob dir, the serialization path is exercised),
/// optionally writes the blob under `blobDir`, then resumes from the blob
/// and runs the tail. The returned world's final state is byte-identical to
/// a straight-through run of the same config.
std::unique_ptr<experiment::World> runCheckpointCycle(
    const experiment::ScenarioConfig& config, const AnchorSpec& anchor,
    const std::string& blobDir, const std::string& tag);

/// Parses a MANET_CKPT_SCHEME override spec with experiment::parseScheme
/// (grammar experiment::kSchemeGrammar). Throws Error naming the knob on
/// anything that parser rejects.
experiment::SchemeSpec parseSchemeOverride(const std::string& text);

/// Bench wiring, called by bench::Report before any sweep runs:
///  * `--resume-from <file>` (or MANET_CKPT_RESUME): load the checkpoint,
///    resume+verify, optionally swap the scheme (MANET_CKPT_SCHEME), run the
///    tail, print a one-run summary, and exit(0) — the bench's sweeps never
///    run.
///  * `--checkpoint-at <seconds|N%>` (or MANET_CKPT_AT): install a runner
///    override so every scenario the bench runs goes through
///    runCheckpointCycle at that anchor. MANET_CKPT_DIR names a directory
///    for blob files (default: in-memory only).
/// Returns true when a checkpoint mode was activated.
bool configureFromCli(int argc, char** argv, const std::string& benchName);

}  // namespace manet::ckpt
