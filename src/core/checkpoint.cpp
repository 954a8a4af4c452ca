#include "core/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "nn/serialize.hpp"

namespace mirage::core {

namespace {
// v2 appends the moe_top1 flag: the serving registry needs it to rebuild
// the gate's select-vs-blend semantics from the artifact alone.
constexpr char kHeaderMagic[] = "MIRAGE-CKPT-2";

std::string foundation_name(nn::FoundationType t) {
  return t == nn::FoundationType::kMoE ? "moe" : "transformer";
}

std::string header_line(const std::string& kind, nn::FoundationType type,
                        const nn::FoundationConfig& net) {
  std::ostringstream out;
  out << kHeaderMagic << ' ' << kind << ' ' << foundation_name(type) << ' ' << net.history_len
      << ' ' << net.state_dim << ' ' << net.d_model << ' ' << net.moe_experts << ' '
      << (net.moe_top1 ? 1 : 0);
  return out.str();
}

bool save_impl(nn::DualHeadModel& model, const std::string& kind, nn::FoundationType type,
               const nn::FoundationConfig& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << header_line(kind, type, net) << '\n';
  const auto params = model.parameters();
  const auto bytes = nn::serialize_params(params);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

bool save_agent(rl::DqnAgent& agent, const std::string& path) {
  return save_impl(agent.model(), "dqn", agent.config().foundation, agent.config().net, path);
}

bool save_agent(rl::PgAgent& agent, const std::string& path) {
  return save_impl(agent.model(), "pg", agent.config().foundation, agent.config().net, path);
}

bool load_model(nn::DualHeadModel& model, const std::string& kind, nn::FoundationType type,
                const nn::FoundationConfig& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header)) return false;
  if (header != header_line(kind, type, net)) return false;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return nn::deserialize_params(bytes, model.parameters());
}

bool load_agent(rl::DqnAgent& agent, const std::string& path) {
  return load_model(agent.model(), "dqn", agent.config().foundation, agent.config().net, path);
}

bool load_agent(rl::PgAgent& agent, const std::string& path) {
  return load_model(agent.model(), "pg", agent.config().foundation, agent.config().net, path);
}

std::optional<CheckpointInfo> read_checkpoint_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string magic;
  CheckpointInfo info;
  int top1 = 0;
  in >> magic >> info.kind >> info.foundation >> info.history_len >> info.state_dim >>
      info.d_model >> info.moe_experts >> top1;
  if (!in || magic != kHeaderMagic) return std::nullopt;
  info.moe_top1 = top1 != 0;
  return info;
}

}  // namespace mirage::core
