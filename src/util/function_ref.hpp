// FunctionRef<R(Args...)>: a non-owning, trivially copyable reference to
// a callable — two words (object pointer + trampoline), never allocating.
//
// std::function's small-buffer optimization tops out at two pointers of
// captured state on libstdc++; the round hot path's phase lambdas capture
// more and would spill to the heap every round. FunctionRef cannot spill:
// it points at the caller's callable instead of copying it. The flip side
// is a lifetime contract — the referenced callable must outlive every
// call — which the synchronous pool (ThreadPool::run_plan blocks until
// every stage finished) satisfies by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace cellflow {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Empty reference; calling it is undefined. Exists so holders (a
  /// ThreadPool::PlanStage) can be declared before a task is set.
  constexpr FunctionRef() noexcept = default;
  constexpr FunctionRef(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  /// Binds to any callable lvalue (or a temporary that outlives the
  /// call, e.g. a lambda passed directly to a blocking function).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(runtime/explicit)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          using Fn = std::remove_reference_t<F>;
          return (*static_cast<Fn*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return call_ != nullptr;
  }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace cellflow
