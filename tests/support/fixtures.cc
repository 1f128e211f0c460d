#include "support/fixtures.h"

#include "common/serialize.h"

namespace plp::test {

data::TrainingCorpus UniformCorpus(uint64_t seed, int32_t num_users,
                                   int32_t num_locations, int32_t min_tokens,
                                   int32_t max_tokens) {
  data::FixtureCorpusOptions options;
  options.num_users = num_users;
  options.num_locations = num_locations;
  options.min_tokens_per_user = min_tokens;
  options.max_tokens_per_user = max_tokens;
  return data::MakeFixtureCorpus(seed, options);
}

data::TrainingCorpus ClusteredCorpus(uint64_t seed, int32_t num_users,
                                     int32_t tokens_per_user,
                                     int32_t num_locations) {
  data::FixtureCorpusOptions options;
  options.num_users = num_users;
  options.num_locations = num_locations;
  options.min_tokens_per_user = tokens_per_user;
  options.max_tokens_per_user = tokens_per_user;
  options.neighborhood = 5;
  return data::MakeFixtureCorpus(seed, options);
}

core::PlpConfig FastTrainerConfig() {
  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.2;
  config.grouping_factor = 3;
  config.noise_scale = 2.0;
  config.epsilon_budget = 4.0;
  config.max_steps = 10;
  return config;
}

core::PlpConfig InvariantTrainerConfig() {
  core::PlpConfig config;
  config.sgns.embedding_dim = 6;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.noise_scale = 2.0;
  config.epsilon_budget = 5.0;
  config.max_steps = 6;
  return config;
}

std::string LegacyPldBlob(double delta, double q, double sigma,
                          int64_t steps) {
  ByteWriter writer;
  writer.U32(0x31444C50);  // "PLD1" little-endian
  writer.F64(delta);
  writer.I32(15);    // log2 grid size
  writer.F64(32.0);  // grid range
  writer.U64(1);     // entry count
  writer.F64(q);
  writer.F64(sigma);
  writer.I64(steps);
  return writer.Take();
}

}  // namespace plp::test
