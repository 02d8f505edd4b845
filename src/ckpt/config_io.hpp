// Binary round-trip of a resolved experiment::ScenarioConfig — the CFG0
// section of a checkpoint, laid out by the declared field list
// (experiment/config_schema.hpp). A resumed world is rebuilt from exactly
// this config (the env knob aliases were already applied when the original
// world was built), then replayed to the anchor; serializing the config
// rather than pointing at a config file makes a checkpoint self-contained.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/scenario.hpp"

namespace manet::ckpt {

std::vector<std::uint8_t> encodeConfig(const experiment::ScenarioConfig& c);
/// Throws Error on a malformed payload or a config validate() rejects.
experiment::ScenarioConfig decodeConfig(const std::vector<std::uint8_t>& b);

}  // namespace manet::ckpt
