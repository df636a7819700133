// Built-in tactic plugins — the constructions of Table 2, each implemented
// against the SPI (paper §5: "We implemented and integrated several tactics
// using the proposed architecture based on the SPI pattern").
//
// Every header exposes the concrete gateway-side class so applications can
// also hard-code a tactic without the middleware. Scenario S_B of the
// evaluation (workload/scenarios.hpp) constructs DET, Mitra, RND and
// Paillier this way and runs them through the gateway's own pipeline
// pieces (core/exec/runtime.hpp), so the Figure 5 bench isolates the
// middleware's own overhead.
#pragma once

#include "core/registry.hpp"

namespace datablinder::core {

void register_det_tactic(TacticRegistry& r);
void register_rnd_tactic(TacticRegistry& r);
void register_mitra_tactic(TacticRegistry& r);
void register_sophos_tactic(TacticRegistry& r);
void register_biex2lev_tactic(TacticRegistry& r);
void register_biexzmf_tactic(TacticRegistry& r);
void register_ope_tactic(TacticRegistry& r);
void register_rangebrc_tactic(TacticRegistry& r);
void register_ore_tactic(TacticRegistry& r);
void register_paillier_tactic(TacticRegistry& r);

/// Registers all of the above (the default DataBlinder tactic set).
void register_builtin_tactics(TacticRegistry& r);

}  // namespace datablinder::core
