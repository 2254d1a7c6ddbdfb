// Derives a CostModel for a VM target by measurement (§III-C1): style-
// specific micro-programs are executed on the VM to obtain the per-statement
// cycle and byte parameters (the paper's "sample benchmark programs, about
// 20 functions"), and a corpus of synthesized random CFSMs is compiled to
// fit the layout statistics (goto fraction, inverted-branch fraction) that
// a graph-level estimator cannot know exactly.
#pragma once

#include "estim/cost_model.hpp"
#include "vm/isa.hpp"

namespace polis::estim {

CostModel calibrate(const vm::TargetProfile& profile);

}  // namespace polis::estim
