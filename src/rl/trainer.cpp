#include "rl/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mirage::rl {

using util::SimTime;

std::vector<float> pretrain_foundation(DqnAgent& agent, std::span<const Experience> samples,
                                       const PretrainConfig& config) {
  std::vector<float> epoch_losses;
  if (samples.empty()) return epoch_losses;
  util::Rng rng(config.seed);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    util::RunningStats loss_stats;
    for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, order.size());
      std::vector<const Experience*> batch;
      batch.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) batch.push_back(&samples[order[i]]);
      loss_stats.add(agent.pretrain_batch(batch));
    }
    epoch_losses.push_back(static_cast<float>(loss_stats.mean()));
  }
  return epoch_losses;
}

namespace {

/// Uniform anchor times away from the range edges (an episode needs warmup
/// before t0 and horizon after).
SimTime sample_anchor(util::Rng& rng, SimTime begin, SimTime end, const EpisodeConfig& ec) {
  const SimTime lo = begin + ec.warmup;
  const SimTime hi = std::max(lo + 1, end - ec.max_horizon);
  return lo + static_cast<SimTime>(rng.uniform() * static_cast<double>(hi - lo));
}

struct Rollout {
  std::vector<Experience> experiences;  ///< DQN: subsampled steps
  PgEpisode pg;                         ///< PG: full payload
  float reward = 0.0f;
};

/// Roll one DQN episode with epsilon-greedy actions from `policy`.
Rollout rollout_dqn(DqnAgent& policy, const trace::Trace& full, std::int32_t nodes,
                    const EpisodeConfig& ec, SimTime t0, std::size_t episode_index,
                    std::size_t max_no_submit, util::Rng rng) {
  Rollout r;
  trace::Trace window = slice_for_episode(full, t0, ec);
  ProvisionEnv env(std::move(window), nodes, ec, t0);
  std::vector<Experience> no_submit;
  for (;;) {
    std::vector<float> obs = env.observation(0.0f);
    const int action = policy.act_epsilon_greedy(obs, episode_index, rng);
    if (action == 1) {
      r.experiences.push_back(Experience{std::move(obs), 1, 0.0f});
      env.step(1);
      break;
    }
    no_submit.push_back(Experience{std::move(obs), 0, 0.0f});
    if (!env.step(0)) break;  // reactive fallback fired
  }
  if (!env.done()) env.finish();
  r.reward = static_cast<float>(env.reward());

  rng.shuffle(no_submit);
  const std::size_t take = std::min(no_submit.size(), max_no_submit);
  for (std::size_t i = 0; i < take; ++i) r.experiences.push_back(std::move(no_submit[i]));
  for (auto& e : r.experiences) e.reward = r.reward;
  return r;
}

/// Roll one PG episode, sampling actions from `policy`.
Rollout rollout_pg(PgAgent& policy, const trace::Trace& full, std::int32_t nodes,
                   const EpisodeConfig& ec, SimTime t0, util::Rng rng) {
  Rollout r;
  trace::Trace window = slice_for_episode(full, t0, ec);
  ProvisionEnv env(std::move(window), nodes, ec, t0);
  for (;;) {
    std::vector<float> obs = env.observation(0.0f);
    const int action = policy.act_sample(obs, rng);
    r.pg.observations.push_back(std::move(obs));
    r.pg.actions.push_back(action);
    if (action == 1) {
      env.step(1);
      break;
    }
    if (!env.step(0)) break;
  }
  if (!env.done()) env.finish();
  r.reward = static_cast<float>(env.reward());
  r.pg.reward = r.reward;
  return r;
}

void fill_report(OnlineTrainReport& report, const std::vector<float>& rewards) {
  report.episodes = rewards.size();
  if (rewards.empty()) return;
  const std::size_t q = std::max<std::size_t>(1, rewards.size() / 4);
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) first += rewards[i];
  for (std::size_t i = rewards.size() - q; i < rewards.size(); ++i) last += rewards[i];
  report.mean_reward_first_quarter = first / static_cast<double>(q);
  report.mean_reward_last_quarter = last / static_cast<double>(q);
}

}  // namespace

OnlineTrainReport train_dqn_online(DqnAgent& agent, const trace::Trace& full,
                                   std::int32_t cluster_nodes, const EpisodeConfig& episode_config,
                                   SimTime range_begin, SimTime range_end,
                                   const OnlineTrainConfig& config,
                                   std::span<const Experience> seed_samples) {
  OnlineTrainReport report;
  ReplayBuffer buffer(config.replay_capacity);
  for (const auto& e : seed_samples) buffer.add(e);

  util::Rng rng(config.seed);
  std::vector<float> rewards;
  std::size_t episode_index = 0;

  while (episode_index < config.episodes) {
    const std::size_t n = std::min(config.episodes_per_round, config.episodes - episode_index);
    // Workers explore independently from this round's policy.
    std::vector<Rollout> rollouts(n);
    std::vector<SimTime> anchors(n);
    std::vector<util::Rng> rngs;
    rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      anchors[i] = sample_anchor(rng, range_begin, range_end, episode_config);
      rngs.push_back(rng.split());
    }
    auto run_one = [&](std::size_t i) {
      // Each worker needs its own model instance (forward caches are not
      // thread-safe). Nothing writes `agent` until every rollout is back,
      // so workers copy its parameters directly.
      DqnAgent worker(agent.config(), /*seed=*/1);
      worker.model().copy_params_from(agent.model());
      rollouts[i] = rollout_dqn(worker, full, cluster_nodes, episode_config, anchors[i],
                                episode_index + i, config.max_no_submit_per_episode, rngs[i]);
    };
    if (config.parallel) {
      util::ThreadPool::global().parallel_for(n, run_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    }

    for (auto& r : rollouts) {
      rewards.push_back(r.reward);
      for (auto& e : r.experiences) buffer.add(std::move(e));
    }
    episode_index += n;

    util::RunningStats round_loss;
    for (std::size_t s = 0; s < config.train_steps_per_round && !buffer.empty(); ++s) {
      round_loss.add(agent.train_batch(buffer, rng));
    }
    report.losses.push_back(static_cast<float>(round_loss.mean()));
  }
  fill_report(report, rewards);
  return report;
}

OnlineTrainReport train_pg_online(PgAgent& agent, const trace::Trace& full,
                                  std::int32_t cluster_nodes, const EpisodeConfig& episode_config,
                                  SimTime range_begin, SimTime range_end,
                                  const OnlineTrainConfig& config) {
  OnlineTrainReport report;
  util::Rng rng(config.seed);
  std::vector<float> rewards;
  std::size_t episode_index = 0;

  while (episode_index < config.episodes) {
    const std::size_t n = std::min(config.episodes_per_round, config.episodes - episode_index);
    std::vector<Rollout> rollouts(n);
    std::vector<SimTime> anchors(n);
    std::vector<util::Rng> rngs;
    rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      anchors[i] = sample_anchor(rng, range_begin, range_end, episode_config);
      rngs.push_back(rng.split());
    }
    auto run_one = [&](std::size_t i) {
      PgAgent worker(agent.config(), /*seed=*/1);
      worker.model().copy_params_from(agent.model());
      rollouts[i] =
          rollout_pg(worker, full, cluster_nodes, episode_config, anchors[i], rngs[i]);
    };
    if (config.parallel) {
      util::ThreadPool::global().parallel_for(n, run_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    }

    std::vector<PgEpisode> batch;
    batch.reserve(n);
    for (auto& r : rollouts) {
      rewards.push_back(r.reward);
      batch.push_back(std::move(r.pg));
    }
    episode_index += n;
    report.losses.push_back(agent.update(batch));
  }
  fill_report(report, rewards);
  return report;
}

}  // namespace mirage::rl
