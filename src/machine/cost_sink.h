/**
 * @file
 * Dynamic-cost accumulation for execution-driven performance modeling.
 *
 * The interpreter reports every dynamic operation to a CostSink; the
 * sink weights it by the machine description and attributes it to the
 * actor currently executing. Attribution is two-dimensional — per
 * actor, per op class, and the full actor x op-class matrix — feeding
 * the multicore partitioner, the per-benchmark breakdowns in the
 * benches, and the JSON reports of the CLI (--json-report).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine_desc.h"
#include "support/json.h"

namespace macross::machine {

/** Accumulated cycles, total and per actor / op class. */
class CostSink {
  public:
    /** Keeps a pointer to @p m, which must outlive the sink. */
    explicit CostSink(const MachineDesc& m) : machine_(&m) {}
    /** A temporary (e.g. `CostSink(coreI7())`) would dangle at once. */
    CostSink(MachineDesc&&) = delete;

    /** Set the actor all subsequent charges attribute to. */
    void setCurrentActor(int actor_id);

    /** Charge @p count ops of class @p c over @p lanes lanes. */
    void charge(OpClass c, int lanes = 1, std::int64_t count = 1);

    /**
     * Charge @p count ops of class @p c with a pre-resolved cycle
     * total. The bytecode engine resolves `vectorCost(c, lanes) *
     * count` once at compile time and replays it here; attribution
     * (total, per class, per actor x class) is identical to charge().
     */
    void chargeWeighted(OpClass c, double cycles,
                        std::int64_t count = 1);

    /** Charge an explicit cycle amount (for modeled overheads). */
    void chargeCycles(double cycles);

    double totalCycles() const { return total_; }
    /** Cycles attributed to @p actor_id (0 if never charged). */
    double actorCycles(int actor_id) const;
    /** Cycles per op class (index by static_cast<int>(OpClass)). */
    const std::vector<double>& classCycles() const { return byClass_; }
    /** Dynamic op count per op class. */
    const std::vector<std::int64_t>& classOps() const { return opsByClass_; }

    /**
     * Cycles attributed to (actor, op class). Zero when the actor was
     * never charged. Explicit chargeCycles() amounts carry no op
     * class and appear only in actorCycles()/totalCycles().
     */
    double actorClassCycles(int actor_id, OpClass c) const;

    /**
     * Sum of per-actor attributed cycles in ascending actor-id order.
     * Because FP addition is order-sensitive, this canonical order
     * makes the result independent of how charges from different
     * actors interleaved — it is the quantity the parallel runner can
     * reproduce bit-exactly at any thread count. Equals totalCycles()
     * when every charge was actor-attributed and the sink was built by
     * assignDisjointUnion.
     */
    double attributedCycles() const;

    /**
     * Replace this sink's contents with the union of @p parts, whose
     * actor attributions must be disjoint (each actor charged in at
     * most one part — true for per-thread sinks of a partitioned run,
     * where an actor fires on exactly one thread). Per-actor cells are
     * copied bit-exactly; op counts are summed (exact, integer); the
     * per-class and total aggregates are recomputed in ascending
     * actor-id order so the result is identical for any distribution
     * of actors over parts. Charges never attributed to an actor
     * cannot be represented and must not exist in @p parts (the
     * runner always sets an actor before charging).
     */
    void assignDisjointUnion(const std::vector<const CostSink*>& parts);

    const MachineDesc& machine() const { return *machine_; }

    /**
     * Serialize the full breakdown:
     * {"totalCycles", "classes": {class: {cycles, ops}},
     *  "actors": [{id, name?, cycles, classes: {class: cycles}}]}.
     * Zero rows/cells are omitted. @p actor_names, when non-empty, is
     * indexed by actor id to label the per-actor records.
     */
    json::Value toJson(
        const std::vector<std::string>& actor_names = {}) const;

    /** Reset all accumulators (machine unchanged). */
    void reset();

  private:
    const MachineDesc* machine_;
    double total_ = 0.0;
    int currentActor_ = -1;
    std::vector<double> byActor_;
    /** Row per actor id, NumClasses cycle cells each (lazily grown). */
    std::vector<std::vector<double>> byActorClass_;
    std::vector<double> byClass_ =
        std::vector<double>(static_cast<int>(OpClass::NumClasses), 0.0);
    std::vector<std::int64_t> opsByClass_ = std::vector<std::int64_t>(
        static_cast<int>(OpClass::NumClasses), 0);
};

} // namespace macross::machine
