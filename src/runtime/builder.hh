/**
 * @file
 * Listing 1-style application builder: the user-facing programming
 * model (§3.1).
 *
 * Functions are written as a sequence of steps — compute, synchronous
 * jord::call, asynchronous jord::async — and assembled into an App
 * (function registry + entry mix) that a WorkerServer deploys:
 *
 *     AppBuilder app;
 *     app.function("SrcFunc")
 *         .compute(0.3)          // pre(req->in), populate ArgBufs
 *         .async("Tgt1", 256)    // int c = jord::async(Tgt1, r1)
 *         .call("Tgt2", 512)     // jord::call(Tgt2, r2) — suspends
 *         .compute(0.2);         // post(...) after jord::wait(c)
 *     app.function("Tgt1").compute(0.4);
 *     app.function("Tgt2").compute(0.6);
 *     app.entry("SrcFunc", 1.0);
 *     App built = app.build();
 *
 * Asynchronous children are joined before the final compute step (the
 * implicit jord::wait of the runtime); call() suspends in place.
 */

#ifndef JORD_RUNTIME_BUILDER_HH
#define JORD_RUNTIME_BUILDER_HH

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "runtime/registry.hh"
#include "runtime/worker.hh"

namespace jord::runtime {

/** A fully resolved application ready to deploy. */
struct App {
    FunctionRegistry registry;
    EntryMix mix;
};

class AppBuilder;

/**
 * Fluent description of one function.
 */
class FunctionBuilder
{
  public:
    /** Append a compute step of @p us microseconds (mean). */
    FunctionBuilder &compute(double us);

    /** Synchronous nested invocation (jord::call): suspends here. */
    FunctionBuilder &call(const std::string &target,
                          std::uint64_t arg_bytes = 512);

    /** Asynchronous nested invocation (jord::async). */
    FunctionBuilder &async(const std::string &target,
                           std::uint64_t arg_bytes = 512);

    /** ArgBuf size for external requests to this function. */
    FunctionBuilder &argBytes(std::uint64_t bytes);

  private:
    friend class AppBuilder;

    struct PendingCall {
        std::string target;
        std::uint64_t argBytes;
        bool sync;
    };

    explicit FunctionBuilder(std::string name);

    std::string name_;
    std::uint64_t argBytes_ = 512;
    std::vector<double> segmentUs_{0.0};
    std::vector<PendingCall> calls_;
};

/**
 * Collects FunctionBuilders, resolves call targets by name, verifies
 * the call graph is acyclic, and emits the App.
 */
class AppBuilder
{
  public:
    /** Get (or create) the builder for @p name. */
    FunctionBuilder &function(const std::string &name);

    /** Declare an external entry point with a mix weight. */
    AppBuilder &entry(const std::string &name, double weight);

    /**
     * Resolve and build. Fatal on: unknown call targets, an empty
     * entry mix, or cycles in the call graph (which would recurse
     * without bound at run time).
     */
    App build() const;

  private:
    /** Deque: references returned by function() stay valid as more
     * functions are declared. */
    std::deque<FunctionBuilder> functions_;
    std::map<std::string, std::size_t> byName_;
    std::vector<std::pair<std::string, double>> entries_;
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_BUILDER_HH
