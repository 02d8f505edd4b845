#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "ckpt/config_io.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/state_access.hpp"
#include "experiment/config_schema.hpp"
#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace manet::ckpt {

namespace {

const Section& findSection(const std::vector<Section>& sections,
                           const char* tag) {
  for (const Section& s : sections) {
    if (s.tag == tag) return s;
  }
  throw Error(std::string("checkpoint is missing section ") + tag);
}

void expectEnd(const Reader& r, const char* tag) {
  if (!r.atEnd()) {
    throw Error(std::string("section ") + tag + " has " +
                std::to_string(r.remaining()) + " trailing bytes");
  }
}

}  // namespace

std::vector<std::uint8_t> capture(const experiment::World& world) {
  Writer meta;
  meta.time(world.now());
  meta.time(world.horizonTime());
  meta.boolean(obs::current() != nullptr);
  return frameContainer({{"CFG0", encodeConfig(world.config())},
                         {"META", meta.take()},
                         {"DGST", encodeDigests(StateAccess::digests(world))}});
}

std::vector<std::uint8_t> encodeDigests(const StateDigests& digests) {
  Writer w;
  w.u64(digests.size());
  for (const NamedDigest& entry : digests) {
    w.str(entry.name);
    w.u64(entry.value);
  }
  return w.take();
}

StateDigests decodeDigests(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  const std::uint64_t count = r.u64();
  // Every entry takes at least 16 bytes; a larger count is a corrupt length
  // field, caught here instead of via bad_alloc.
  if (count > r.remaining() / 16) {
    throw Error("implausible digest count " + std::to_string(count));
  }
  StateDigests digests(static_cast<std::size_t>(count));
  for (NamedDigest& entry : digests) {
    entry.name = r.str();
    entry.value = r.u64();
  }
  expectEnd(r, "DGST");
  return digests;
}

std::vector<std::string> diffDigests(const StateDigests& stored,
                                     const StateDigests& replayed) {
  constexpr std::size_t kMaxLines = 32;
  std::vector<std::string> out;
  std::string lastGroup;
  const std::size_t n = std::min(stored.size(), replayed.size());
  for (std::size_t i = 0; i < n; ++i) {
    const NamedDigest& a = stored[i];
    const NamedDigest& b = replayed[i];
    if (a.name != b.name) {
      out.push_back("entry " + std::to_string(i) + " is '" + a.name +
                    "' in the checkpoint but '" + b.name + "' on replay");
      return out;
    }
    if (a.value == b.value) continue;
    // Host entries are "host <id> <component>": one line per host.
    const std::size_t space = a.name.rfind(' ');
    if (space == std::string::npos) {
      out.push_back(a.name + " differs (" + std::to_string(a.value) + " vs " +
                    std::to_string(b.value) + ")");
      lastGroup.clear();
    } else if (std::string_view(a.name).substr(0, space) == lastGroup) {
      out.back() += a.name.substr(space);
      continue;
    } else {
      lastGroup = a.name.substr(0, space);
      out.push_back(lastGroup + ":" + a.name.substr(space));
    }
    if (out.size() >= kMaxLines) {
      out.push_back("... further diffs suppressed");
      return out;
    }
  }
  if (stored.size() != replayed.size()) {
    out.push_back("digest count: " + std::to_string(stored.size()) + " vs " +
                  std::to_string(replayed.size()));
  }
  return out;
}

std::unique_ptr<experiment::World> resume(
    const std::vector<std::uint8_t>& blob) {
  const std::vector<Section> sections = parseContainer(blob);
  const experiment::ScenarioConfig config =
      decodeConfig(findSection(sections, "CFG0").payload);
  Reader meta(findSection(sections, "META").payload);
  const sim::TimePoint anchor = meta.time();
  const sim::TimePoint horizon = meta.time();
  const bool hadRegistry = meta.boolean();
  expectEnd(meta, "META");
  const StateDigests stored =
      decodeDigests(findSection(sections, "DGST").payload);

  // Replay must run in the same metrics-collection mode the capture saw, or
  // the `metrics` digest can't match. A standalone resume (no registry on
  // this thread) of a collection-on checkpoint gets a private registry for
  // the replay window.
  std::unique_ptr<obs::Registry> privateRegistry;
  if (hadRegistry && obs::current() == nullptr) {
    privateRegistry = std::make_unique<obs::Registry>();
  }
  obs::ScopedRegistry scope(privateRegistry != nullptr ? privateRegistry.get()
                                                       : obs::current());

  auto world = std::make_unique<experiment::World>(config);
  world->beginRun();
  world->continueUntil(anchor);
  std::vector<std::string> diffs =
      diffDigests(stored, StateAccess::digests(*world));
  if (world->horizonTime() != horizon) {
    diffs.insert(diffs.begin(),
                 "horizon: " + std::to_string(horizon.ticks()) + " vs " +
                     std::to_string(world->horizonTime().ticks()) + " us");
  }
  if (!diffs.empty()) {
    std::string msg =
        "resume verification failed: replay to the anchor diverged from the "
        "checkpoint (different binary, env overrides, or a determinism bug):";
    for (const std::string& d : diffs) {
      msg += "\n  ";
      msg += d;
    }
    throw Error(msg);
  }
  return world;
}

void writeBlobFile(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw Error("cannot open checkpoint file for writing: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw Error("short write to checkpoint file: " + path);
}

std::vector<std::uint8_t> readBlobFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw Error("cannot open checkpoint file: " + path);
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) throw Error("short read from checkpoint file: " + path);
  return bytes;
}

AnchorSpec parseAnchorSpec(const std::string& text) {
  if (text.empty()) throw Error("empty checkpoint anchor spec");
  AnchorSpec spec;
  try {
    std::size_t used = 0;
    if (text.back() == '%') {
      spec.fraction = std::stod(text.substr(0, text.size() - 1), &used) /
                      100.0;
      if (used != text.size() - 1) throw std::invalid_argument(text);
      if (!(spec.fraction >= 0.0 && spec.fraction <= 1.0)) {
        throw Error("checkpoint anchor percentage out of [0, 100]: " + text);
      }
    } else {
      spec.seconds = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      if (!(spec.seconds >= 0.0 && std::isfinite(spec.seconds))) {
        throw Error("checkpoint anchor seconds must be finite and >= 0: " +
                    text);
      }
    }
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("malformed checkpoint anchor (want seconds or N%): " + text);
  }
  return spec;
}

namespace {

std::string blobFileName(const std::string& tag,
                         const std::vector<std::uint8_t>& blob) {
  const std::uint64_t digest = fnv1a(blob.data(), blob.size());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  return "ck_" + tag + "_" + hex + ".mckpt";
}

}  // namespace

std::unique_ptr<experiment::World> runCheckpointCycle(
    const experiment::ScenarioConfig& config, const AnchorSpec& anchor,
    const std::string& blobDir, const std::string& tag) {
  std::vector<std::uint8_t> blob;
  {
    // Phase A (prefix): run to the anchor and capture. Its metric events go
    // to a scratch registry — the resumed world replays the same prefix
    // under the real one, so counting both would double every prefix event.
    obs::Registry scratch;
    obs::ScopedRegistry scope(obs::current() != nullptr ? &scratch : nullptr);
    experiment::World prefix(config);
    prefix.beginRun();
    sim::TimePoint at = prefix.horizonTime();
    if (anchor.seconds >= 0.0) {
      at = sim::kTimeZero + sim::fromSeconds(anchor.seconds);
    } else if (anchor.fraction >= 0.0) {
      at = sim::kTimeZero +
           sim::scaleRound(prefix.horizonTime().sinceStart(), anchor.fraction);
    }
    if (at > prefix.horizonTime()) at = prefix.horizonTime();
    if (at < sim::kTimeZero) at = sim::kTimeZero;
    prefix.continueUntil(at);
    blob = capture(prefix);
  }
  // The encode+decode+replay+verify path runs even without a blob dir; the
  // file write is only for artifacts (CI uploads them when the gate fails).
  if (!blobDir.empty()) {
    std::filesystem::create_directories(blobDir);
    writeBlobFile((std::filesystem::path(blobDir) / blobFileName(tag, blob))
                      .string(),
                  blob);
  }
  std::unique_ptr<experiment::World> resumed = resume(blob);
  resumed->runToEnd();
  return resumed;
}

experiment::SchemeSpec parseSchemeOverride(const std::string& text) {
  try {
    return experiment::parseScheme(text);
  } catch (const std::invalid_argument& e) {
    throw Error(std::string("bad MANET_CKPT_SCHEME: ") + e.what());
  }
}

bool configureFromCli(int argc, char** argv, const std::string& benchName) {
  std::string resumePath;
  std::string anchorText;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume-from" && i + 1 < argc) {
      resumePath = argv[++i];
    } else if (arg == "--checkpoint-at" && i + 1 < argc) {
      anchorText = argv[++i];
    }
  }
  if (resumePath.empty()) {
    if (auto v = util::envString("MANET_CKPT_RESUME")) resumePath = *v;
  }
  if (anchorText.empty()) {
    if (auto v = util::envString("MANET_CKPT_AT")) anchorText = *v;
  }

  if (!resumePath.empty()) {
    const std::unique_ptr<experiment::World> resumed =
        resume(readBlobFile(resumePath));
    experiment::World& world = *resumed;
    std::printf("resume %s at t=%.3fs of %.3fs\n", resumePath.c_str(),
                sim::toSeconds(world.now()),
                sim::toSeconds(world.horizonTime()));
    if (auto spec = util::envString("MANET_CKPT_SCHEME")) {
      const experiment::SchemeSpec scheme = parseSchemeOverride(*spec);
      world.overrideScheme(scheme);
      std::printf("tail scheme override: %s\n", scheme.name().c_str());
    }
    world.runToEnd();
    const stats::RunSummary summary = world.metrics().summarize();
    std::printf("scheme=%s broadcasts=%llu RE=%.4f SRB=%.4f latency=%.6fs\n",
                world.config().scheme.name().c_str(),
                static_cast<unsigned long long>(summary.broadcasts),
                summary.meanRe, summary.meanSrb, summary.meanLatencySeconds);
    std::printf(
        "framesTransmitted=%llu framesDelivered=%llu framesCorrupted=%llu\n",
        static_cast<unsigned long long>(world.channel().framesTransmitted()),
        static_cast<unsigned long long>(world.channel().framesDelivered()),
        static_cast<unsigned long long>(world.channel().framesCorrupted()));
    std::exit(0);
  }

  if (anchorText.empty()) return false;
  const AnchorSpec anchor = parseAnchorSpec(anchorText);
  std::string blobDir;
  if (auto v = util::envString("MANET_CKPT_DIR")) blobDir = *v;
  experiment::setWorldRunOverride(
      [anchor, blobDir,
       benchName](const experiment::ScenarioConfig& scenario) {
        return runCheckpointCycle(scenario, anchor, blobDir, benchName);
      });
  return true;
}

}  // namespace manet::ckpt

namespace manet::experiment {

void World::checkpoint(const std::string& path) const {
  ckpt::writeBlobFile(path, ckpt::capture(*this));
}

std::unique_ptr<World> World::resume(const std::string& path) {
  return ckpt::resume(ckpt::readBlobFile(path));
}

}  // namespace manet::experiment
