#include "runtime/builder.hh"

#include <numeric>

#include "sim/logging.hh"

namespace jord::runtime {

// --- FunctionBuilder ---------------------------------------------------------

FunctionBuilder::FunctionBuilder(std::string name)
    : name_(std::move(name))
{
}

FunctionBuilder &
FunctionBuilder::compute(double us)
{
    if (us < 0)
        sim::fatal("%s: negative compute time", name_.c_str());
    segmentUs_.back() += us;
    return *this;
}

FunctionBuilder &
FunctionBuilder::call(const std::string &target, std::uint64_t arg_bytes)
{
    calls_.push_back(PendingCall{target, arg_bytes, true});
    segmentUs_.push_back(0.0);
    return *this;
}

FunctionBuilder &
FunctionBuilder::async(const std::string &target,
                       std::uint64_t arg_bytes)
{
    calls_.push_back(PendingCall{target, arg_bytes, false});
    segmentUs_.push_back(0.0);
    return *this;
}

FunctionBuilder &
FunctionBuilder::argBytes(std::uint64_t bytes)
{
    argBytes_ = bytes;
    return *this;
}

// --- AppBuilder ---------------------------------------------------------------

FunctionBuilder &
AppBuilder::function(const std::string &name)
{
    auto it = byName_.find(name);
    if (it != byName_.end())
        return functions_[it->second];
    byName_[name] = functions_.size();
    functions_.push_back(FunctionBuilder(name));
    return functions_.back();
}

AppBuilder &
AppBuilder::entry(const std::string &name, double weight)
{
    if (weight <= 0)
        sim::fatal("entry %s has non-positive weight", name.c_str());
    entries_.emplace_back(name, weight);
    return *this;
}

App
AppBuilder::build() const
{
    if (entries_.empty())
        sim::fatal("application has no entry points");

    App app;

    // First pass: register every function so calls can resolve by id.
    std::map<std::string, FunctionId> ids;
    for (const FunctionBuilder &builder : functions_) {
        FunctionSpec spec;
        spec.name = builder.name_;
        spec.argBytes = builder.argBytes_;
        spec.execMeanUs = std::accumulate(builder.segmentUs_.begin(),
                                          builder.segmentUs_.end(), 0.0);
        if (spec.execMeanUs <= 0)
            sim::fatal("function %s has no compute time",
                       builder.name_.c_str());
        spec.segmentWeights = builder.segmentUs_;
        ids[builder.name_] = app.registry.add(std::move(spec));
    }

    // Second pass: resolve call targets.
    for (const FunctionBuilder &builder : functions_) {
        FunctionSpec &spec =
            app.registry.at(ids.at(builder.name_)).spec;
        for (const auto &pending : builder.calls_) {
            auto it = ids.find(pending.target);
            if (it == ids.end())
                sim::fatal("%s calls unknown function '%s'",
                           builder.name_.c_str(),
                           pending.target.c_str());
            spec.calls.push_back(
                CallSpec{it->second, pending.argBytes, pending.sync});
        }
    }

    // Cycle check: the invocation graph must be a DAG or requests
    // would spawn children forever.
    enum class Mark { White, Grey, Black };
    std::vector<Mark> marks(app.registry.size(), Mark::White);
    std::vector<FunctionId> stack;
    for (std::size_t root = 0; root < app.registry.size(); ++root) {
        if (marks[root] != Mark::White)
            continue;
        stack.push_back(static_cast<FunctionId>(root));
        std::vector<std::size_t> child_pos{0};
        marks[root] = Mark::Grey;
        while (!stack.empty()) {
            FunctionId fn = stack.back();
            const auto &calls = app.registry.at(fn).spec.calls;
            if (child_pos.back() >= calls.size()) {
                marks[fn] = Mark::Black;
                stack.pop_back();
                child_pos.pop_back();
                continue;
            }
            FunctionId next = calls[child_pos.back()++].target;
            if (marks[next] == Mark::Grey)
                sim::fatal("call graph cycle through %s",
                           app.registry.at(next).spec.name.c_str());
            if (marks[next] == Mark::White) {
                marks[next] = Mark::Grey;
                stack.push_back(next);
                child_pos.push_back(0);
            }
        }
    }

    // Entry mix.
    for (const auto &[name, weight] : entries_) {
        auto it = ids.find(name);
        if (it == ids.end())
            sim::fatal("unknown entry point '%s'", name.c_str());
        app.mix.emplace_back(it->second, weight);
    }
    return app;
}

} // namespace jord::runtime
