// SaC-style uniqueness facts over the loop IR (ISSUE 6): which Mat slots
// provably hold the *only live reference* to their buffer at a program
// point. The runtime refcounts buffers (ext_refcount); a slot is "unique"
// here exactly when the optimizer may mutate or steal its buffer without
// any other live handle — or a refCount()/rcLive() observation — being
// able to tell the difference.
//
// Three layers, matching the tentpole:
//   1. computeLiveness (liveness.hpp): which handles may still be read.
//   2. summarizeModule: bottom-up interprocedural summaries — per callee,
//      which Mat parameters are merely *borrowed* (callee keeps no alias:
//      not returned, not passed on to a non-borrowing callee, refcount not
//      observed) and whether every returned Mat is *fresh* (a buffer
//      allocated by the callee that no parameter aliases). Recursion
//      settles at the conservative bottom (borrowed=false, fresh=false)
//      because summaries start there and only improve monotonically.
//   3. analyzeUniqueness: a forward must-analysis (intersection join) per
//      function. Fresh right-hand sides mint uniqueness; a handle copy
//      `A = B` transfers it when B's handle is dead afterwards (the
//      stale-temp pattern every with-loop lowering produces: `A = %wres`);
//      calls strip it from arguments the callee does not borrow; slots
//      whose refcount the program observes anywhere never become unique,
//      so rewrites cannot change what refCount()/rcLive() print.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/liveness.hpp"
#include "ir/ir.hpp"

namespace mmx::analysis {

/// Interprocedural facts for one function.
struct FnSummary {
  /// Per parameter slot: true when the callee only borrows the argument.
  /// Non-Mat parameters are trivially borrowed.
  std::vector<bool> borrowedParams;
  /// True when every Mat value the function returns is a freshly allocated
  /// buffer no parameter (and no second returned handle) aliases.
  bool returnsFresh = false;
};

using SummaryMap = std::map<std::string, FnSummary>;

/// Bottom-up summary computation over the whole module.
SummaryMap summarizeModule(const ir::Module& m);

struct Uniqueness {
  /// Intersection over every abstract visit of the Mat slots provably
  /// holding the only live reference to their buffer *before* each
  /// statement.
  std::map<const ir::Stmt*, SlotSet> uniqueBefore;
  /// Slots whose refcount the program may observe (directly or through a
  /// handle copy / callee) — never reported unique.
  SlotSet observed;

  bool isUniqueBefore(const ir::Stmt* s, int32_t slot) const {
    auto it = uniqueBefore.find(s);
    return it != uniqueBefore.end() && it->second.get(slot);
  }
};

Uniqueness analyzeUniqueness(const ir::Function& f, const SummaryMap& summaries,
                             const Liveness& live);

} // namespace mmx::analysis
