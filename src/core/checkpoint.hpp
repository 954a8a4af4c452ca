// Agent checkpointing: persist a trained DQN or PG agent together with
// enough architecture metadata that loading into a mismatched
// configuration fails loudly instead of silently mis-predicting. (The
// paper ships trained per-cluster models; §1 stresses models are
// cluster-specific.)
#pragma once

#include <optional>
#include <string>

#include "rl/dqn.hpp"
#include "rl/policy_gradient.hpp"

namespace mirage::core {

/// Serialized header fields checked on load.
struct CheckpointInfo {
  std::string kind;        ///< "dqn" | "pg"
  std::string foundation;  ///< "transformer" | "moe"
  std::size_t history_len = 0;
  std::size_t state_dim = 0;
  std::size_t d_model = 0;
  std::size_t moe_experts = 0;
  /// Top-1 routing changes serving semantics (select vs blend), so the
  /// serving tier must be able to recover it from the artifact alone.
  bool moe_top1 = false;
};

bool save_agent(rl::DqnAgent& agent, const std::string& path);
bool save_agent(rl::PgAgent& agent, const std::string& path);

/// Load into a pre-constructed agent; returns false (agent untouched) on
/// header/architecture mismatch or IO error.
bool load_agent(rl::DqnAgent& agent, const std::string& path);
bool load_agent(rl::PgAgent& agent, const std::string& path);

/// Load the parameters of a `kind` ("dqn" | "pg") checkpoint into a bare
/// model built for (type, net); the same header check as load_agent.
bool load_model(nn::DualHeadModel& model, const std::string& kind, nn::FoundationType type,
                const nn::FoundationConfig& net, const std::string& path);

/// Peek at a checkpoint's header without constructing an agent.
std::optional<CheckpointInfo> read_checkpoint_info(const std::string& path);

}  // namespace mirage::core
