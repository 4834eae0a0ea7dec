/**
 * @file
 * String-keyed registry of evaluation backends.
 *
 * Tools and batch drivers select evaluation engines by name
 * (`--backend=model,sim`); the registry resolves those names to
 * EvalBackend instances.  The global() registry comes pre-loaded with
 * the built-in backends ("model", "sim", "ooo", "oosim"); additional
 * backends can be registered at startup before any evaluation begins.
 */

#ifndef MECH_EVAL_REGISTRY_HH
#define MECH_EVAL_REGISTRY_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/backend.hh"

namespace mech {

namespace obs {
class Counter;
} // namespace obs

/** Names of the built-in backends. */
inline constexpr std::string_view kModelBackend = "model";
inline constexpr std::string_view kSimBackend = "sim";
inline constexpr std::string_view kOooBackend = "ooo";
inline constexpr std::string_view kOoOSimBackend = "oosim";

/**
 * An ordered set of backends to evaluate a request against.
 *
 * Non-owning: the pointers reference registry-owned (or otherwise
 * immortal) backends.  Order is preserved through evaluation — the
 * i-th EvalResult of a PointEvaluation comes from the i-th backend.
 */
using BackendSet = std::vector<const EvalBackend *>;

/** Registry mapping backend names to instances. */
class BackendRegistry
{
  public:
    /** An empty registry (built-ins are only in global()). */
    BackendRegistry() = default;

    BackendRegistry(const BackendRegistry &) = delete;
    BackendRegistry &operator=(const BackendRegistry &) = delete;

    /**
     * The process-wide registry, pre-loaded with the built-in
     * backends.  Construction is thread-safe; registering additional
     * backends is not and must happen before concurrent use.
     */
    static BackendRegistry &global();

    /**
     * Register @p backend under its name().
     *
     * Calls fatal() on a duplicate name (user/configuration error).
     */
    void registerBackend(std::unique_ptr<EvalBackend> backend);

    /** Look up a backend by name, or null when unknown. */
    const EvalBackend *find(std::string_view name) const;

    /**
     * Look up a backend by name; calls fatal() listing the known
     * names when @p name is unknown.
     */
    const EvalBackend &at(std::string_view name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /**
     * Resolve a comma-separated backend list ("model,sim") into an
     * ordered BackendSet.  Whitespace around names is ignored; empty
     * entries and unknown or duplicate names call fatal().
     */
    BackendSet parseSet(std::string_view csv) const;

    /**
     * parseSet() without the fatal(): nullopt plus a message in
     * @p error on rejection.  The serve layer resolves client-named
     * backend sets through this, turning a bad name into a structured
     * error response instead of terminating the server.
     */
    std::optional<BackendSet> tryParseSet(std::string_view csv,
                                          std::string *error) const;

  private:
    std::vector<std::unique_ptr<EvalBackend>> backends;
};

/** Resolve @p csv against the global registry ("model,sim"). */
BackendSet backendSet(std::string_view csv);

/** The default backend set: the analytical model only. */
const BackendSet &defaultBackends();

/**
 * The `eval.backend.<name>.evals` counter, registered on first use.
 * A detailed backend counts its own evaluate() calls; the batch
 * fan-out counts every other backend once per chunk.
 */
obs::Counter &backendEvalCounter(std::string_view name);

} // namespace mech

#endif // MECH_EVAL_REGISTRY_HH
