#ifndef PLP_PIPELINE_STANDARD_STAGES_H_
#define PLP_PIPELINE_STANDARD_STAGES_H_

#include <memory>
#include <string>

#include "core/config.h"
#include "core/nonprivate_trainer.h"
#include "pipeline/engine.h"
#include "pipeline/stages.h"

namespace plp::pipeline {

/// The stage configuration of Algorithm 1 (PlpTrainer): Poisson sampler,
/// λ-grouper, per-bucket local SGD, per-tensor C/√3 clip, Gaussian sum
/// query, ledger accountant selected by `config.accountant`, and the
/// configured server optimizer. `config` must already be Validate()d.
StageSet MakePrivateStages(const core::PlpConfig& config);
EngineConfig MakePrivateEngineConfig(const core::PlpConfig& config);

/// The stage configuration of the non-private baseline: null sampler and
/// grouper, a whole-round epoch SGD updater sharing its lazy sparse Adam
/// with the "sparse_adam" server stage, identity clipper, zero-noise
/// aggregator, and the null accountant (ε = 0, never exhausts).
StageSet MakeNonPrivateStages(const core::NonPrivateConfig& config);
EngineConfig MakeNonPrivateEngineConfig(const core::NonPrivateConfig& config);

/// The accountant stage selected by `config.accountant` ("rdp" → the RDP
/// moments-accountant ledger, "mog" → the group-level Mixture-of-Gaussians
/// accountant of Ganesh, arXiv:2401.10294 — the exact FFT-composed PLD of
/// the pipeline's all-or-nothing participation law, and the only one
/// accepting fixed_batch rounds; "pld_fft" → the same MoG stage restricted
/// to Poisson rounds, where its dominating pair is the subsampled-Gaussian
/// PLD of Koskela et al., arXiv:1906.03049). Aborts on names Validate()
/// would reject.
std::unique_ptr<Accountant> MakeAccountant(const core::PlpConfig& config);

/// One line per stage naming the chosen implementation and its parameters
/// (plp_train --print_config).
std::string DescribeStages(const core::PlpConfig& config);

}  // namespace plp::pipeline

#endif  // PLP_PIPELINE_STANDARD_STAGES_H_
