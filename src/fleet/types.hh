/**
 * @file
 * Value types of the fleet layer (DESIGN.md §16): replica health
 * states, per-tenant SLO classes, routing policies, and the
 * request/response envelopes that ride through the Router to an
 * engine replica and back.
 */

#ifndef MFLSTM_FLEET_TYPES_HH
#define MFLSTM_FLEET_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace mflstm {
namespace fleet {

/**
 * Health-state machine of one replica (DESIGN.md §16):
 *
 *   Healthy --misses>=degradedAfter--> Degraded
 *   Degraded --misses>=downAfter--> Down
 *   Degraded --probe ok--> Healthy
 *   Down --restart()--> Recovering
 *   Recovering --ok streak>=recoverAfter--> Healthy
 *
 * Down replicas are ineligible for routing; Degraded replicas stay
 * eligible but their in-flight requests become hedging candidates.
 */
enum class ReplicaState : std::uint8_t
{
    Healthy = 0,
    Degraded,
    Down,
    Recovering,
};

const char *toString(ReplicaState s);

/** Per-tenant service class: scheduling hints applied at submit. */
struct SloClass
{
    std::string tenant;    ///< tenant name this class applies to
    int priority = 0;      ///< forwarded to Request::priority
    double deadlineMs = 0.0;  ///< forwarded to Request::deadlineMs
};

/** How the Router spreads sessions over eligible replicas. */
enum class RoutingPolicy : std::uint8_t
{
    /**
     * Keep a session pinned to the replica that already holds its
     * warm ladder and resident weights (the E-PUR argument); re-pin
     * only when the pinned replica becomes ineligible.
     */
    SessionAffinity = 0,
    RoundRobin,
    LeastLoaded,
};

const char *toString(RoutingPolicy p);

/** Parse a toString() spelling; nullopt on anything else. */
std::optional<RoutingPolicy> parseRoutingPolicy(const std::string &s);

/** One fleet job: tokens plus the routing/SLO identity. */
struct FleetRequest
{
    std::vector<std::int32_t> tokens;
    std::string sessionId;
    std::string tenant;
};

/** Terminal fleet outcome: the engine response plus routing history. */
struct FleetResponse
{
    std::uint64_t fleetId = 0;
    serve::Response response;
    /// replica that produced the terminal response
    std::size_t replica = 0;
    /// dispatch attempts consumed (1 = no failover)
    int attempts = 0;
    /// the request was re-dispatched off a failed/dead replica
    bool failedOver = false;
    /// a hedge dispatch raced the primary and won
    bool hedged = false;
};

/** Router-visible view of one replica at routing time. */
struct ReplicaSnapshot
{
    std::size_t index = 0;
    ReplicaState state = ReplicaState::Healthy;
    bool breakerOpen = false;
    std::size_t queueDepth = 0;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_TYPES_HH
