/**
 * @file
 * A minimal deterministic discrete-event kernel, cycle granular.
 *
 * Events are intrusive (gem5-style): an Event object owns its scheduling
 * state and is processed at most once per schedule() call. Determinism is
 * guaranteed by a FIFO tiebreak among events scheduled for the same cycle
 * with equal priority.
 *
 * The pending store is a timing wheel: near-future events (within
 * `wheelSize` cycles, which covers everything on the per-access path)
 * go into per-cycle buckets found through an occupancy bitmap, so
 * schedule and dispatch are O(1) instead of O(log n) binary-heap
 * operations on 40-byte records. Far-future events (periodic context
 * switches, storm ops) overflow into a small heap and are folded into
 * the wheel as the clock approaches them. Processing order is exactly
 * (cycle, priority, schedule order), identical to a single global
 * priority queue.
 *
 * "Schedule order" is an order key packed into one 64-bit word rather
 * than a global counter: [scheduling cycle | dispatcher band |
 * dispatcher age | per-cycle counter]. Within a cycle, the band and
 * age of the event being dispatched never decrease and the counter
 * always grows, so for ordinary schedule() calls the key order is the
 * order of the calls themselves. The extra fields let scheduleAhead()
 * place a record as if it had been scheduled at a future cycle by a
 * dispatch that never ran as an event (see DESIGN.md, "Per-thread
 * run-ahead").
 */

#ifndef NOCSTAR_SIM_EVENT_QUEUE_HH
#define NOCSTAR_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nocstar
{

class EventQueue;

/**
 * Base class for schedulable work. Derive and implement process(), or use
 * LambdaEvent for one-off callbacks.
 */
class Event
{
  public:
    /** Lower value == processed earlier within the same cycle. */
    using Priority = std::int32_t;

    static constexpr Priority defaultPriority = 0;
    /** Arbitration events run after all same-cycle requests are posted. */
    static constexpr Priority arbitrationPriority = 100;
    /** Stat-dump style events run last in a cycle. */
    static constexpr Priority lastPriority = 1000;

    explicit Event(Priority prio = defaultPriority) : _priority(prio) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Callback invoked when the event's cycle is reached. */
    virtual void process() = 0;

    /** @return true while the event sits in a queue awaiting process(). */
    bool scheduled() const { return _scheduled; }

    /** @return cycle this event is scheduled for (invalidCycle if none). */
    Cycle when() const { return _when; }

    Priority priority() const { return _priority; }

  private:
    friend class EventQueue;

    Priority _priority;
    Cycle _when = invalidCycle;
    bool _scheduled = false;
    /** Generation counter so stale queue records are ignored. */
    std::uint64_t _generation = 0;
};

/**
 * One-shot simulation callback. The capacity covers the largest
 * continuation chain on the per-access path (a page-walk completion
 * carrying the walk result and an organization continuation that
 * itself owns the requester's completion callback); outgrowing it is
 * a compile error, never a heap allocation. Fabric deliveries do not
 * use it: they run on the fabric's own pooled messages.
 */
using SimCallback = InlineFunction<void(), 256>;

/** Convenience event wrapping an inline callback. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(SimCallback fn, Priority prio = defaultPriority)
        : Event(prio), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    SimCallback fn_;
};

/**
 * The global clock and pending-event store for one simulation.
 */
class EventQueue
{
  public:
    /** Registers this queue's clock as the thread's trace-stamp source. */
    EventQueue();

    /** Current simulation cycle. */
    Cycle curCycle() const { return _curCycle; }

    /** Schedule @p ev for absolute cycle @p when (>= curCycle()). */
    void schedule(Event *ev, Cycle when);

    /** Remove @p ev from the queue; no-op fields reset. */
    void deschedule(Event *ev);

    /** Deschedule if needed, then schedule at @p when. */
    void reschedule(Event *ev, Cycle when);

    /** @return true if no events remain. */
    bool empty() const { return _numScheduled == 0; }

    /** Number of scheduled (live) events. */
    std::size_t size() const { return _numScheduled; }

    /**
     * Earliest cycle holding any pending record (live or stale) in the
     * wheel or the overflow heap, or invalidCycle when none remain.
     * Stale records (lazily descheduled events) make the result
     * conservative: it may name a cycle with nothing live to run, but
     * never a cycle later than the first live event.
     */
    Cycle nextEventCycle() const;

    /**
     * Schedule @p ev at @p when with the order key it would have had
     * if a dispatch of @p ev at cycle @p at -- a dispatch that was
     * itself scheduled at cycle @p parent -- had scheduled it. Used by
     * a thread that ran its accesses ahead of the clock inline: among
     * records for the same cycle and priority, the result sorts after
     * every record scheduled before cycle @p at and before every
     * record scheduled after it. Against records scheduled in cycle
     * @p at itself it sorts by the age (at - parent) of its notional
     * dispatcher, exactly as a real dispatch would have, and after
     * those whose dispatcher had the same age; @p tie orders two
     * such records that share (at, parent).
     *
     * Preconditions: curCycle() <= parent < at <= when.
     */
    void scheduleAhead(Event *ev, Cycle when, Cycle at, Cycle parent,
                       std::uint32_t tie);

    /**
     * Advance the clock to @p when without processing anything.
     * Precondition: no pending record sits strictly before @p when
     * (nextEventCycle() >= when); violating it would strand wheel
     * records behind the clock. Used by fast-forward, checkpoint
     * restore (empty queue) and the end of a drained run.
     */
    void
    advanceTo(Cycle when)
    {
        if (when < _curCycle)
            panic("advanceTo into the past: ", when, " < ", _curCycle);
        _curCycle = when;
    }

    /**
     * Run until the queue drains or the cycle limit is passed.
     * @param limit stop before processing events beyond this cycle.
     * @return number of events processed.
     */
    std::uint64_t run(Cycle limit = invalidCycle);

    /** Process events for the current head cycle only. */
    void runOneCycle();

    /**
     * Schedule a one-shot callback; the queue owns the event's
     * lifetime. The backing events come from a free-list pool, so a
     * steady-state simulation stops allocating per message: once the
     * pool has grown to the peak number of in-flight callbacks, every
     * subsequent call reuses a recycled event. @p fn is constructed
     * straight into the pooled event's callback buffer (one move for
     * an rvalue, one copy for an lvalue).
     */
    template <typename F>
    void
    scheduleLambda(Cycle when, F &&fn,
                   Event::Priority prio = Event::defaultPriority)
    {
        PooledLambdaEvent *ev = takeLambdaEvent();
        ev->fn_ = std::forward<F>(fn);
        ev->_priority = prio;
        schedule(ev, when);
    }

    /** Pooled lambda events currently awaiting reuse (test hook). */
    std::size_t freeLambdaEvents() const { return lambdaFree_.size(); }
    /** Pooled lambda events ever allocated by this queue (test hook). */
    std::size_t allocatedLambdaEvents() const { return lambdaAll_.size(); }

  private:
    // Order-key layout, most significant first.
    static constexpr unsigned keyCounterBits = 18;
    static constexpr unsigned keyAgeBits = 8;
    static constexpr unsigned keyBandBits = 2;
    static constexpr unsigned keyCycleShift =
        keyCounterBits + keyAgeBits + keyBandBits;
    /** Counter values from here up are reserved for scheduleAhead(). */
    static constexpr std::uint64_t keyAheadBase =
        std::uint64_t{1} << (keyCounterBits - 1);
    static constexpr std::uint64_t keyMaxAge =
        (std::uint64_t{1} << keyAgeBits) - 1;

    /** Monotone map of a priority onto the key's band field. */
    static std::uint64_t
    bandOf(Event::Priority prio)
    {
        return prio < Event::defaultPriority ? 0
            : prio == Event::defaultPriority ? 1
            : prio < Event::lastPriority     ? 2
                                             : 3;
    }

    /**
     * [band | age] field of a record dispatched at @p cycle: a larger
     * field means a later dispatch (older records go first, so the
     * age is stored inverted, saturating at keyMaxAge).
     */
    static std::uint64_t
    dispatchField(Event::Priority prio, Cycle cycle, Cycle scheduled_at)
    {
        Cycle age = cycle - scheduled_at;
        return (bandOf(prio) << keyAgeBits) |
               (keyMaxAge - (age < keyMaxAge ? age : keyMaxAge));
    }

    /** Order key of an ordinary schedule() call at the current cycle. */
    std::uint64_t nextKey();

    /** fatal() unless @p cycle fits the order key's cycle field. */
    static void
    checkKeyCycle(Cycle cycle)
    {
        if (cycle >> (64 - keyCycleShift))
            fatal("event queue: cycle ", cycle, " exceeds the order key's ",
                  64 - keyCycleShift, "-bit cycle field");
    }

    /** Restart the per-cycle key state when the clock has moved. */
    void
    syncKeyCycle()
    {
        if (keyCycle_ != _curCycle) {
            checkKeyCycle(_curCycle);
            keyCycle_ = _curCycle;
            keyCounter_ = 0;
            keyDispatch_ = 0;
        }
    }

    /** Insert a record for @p ev (already marked scheduled). */
    void enqueue(Event *ev, Cycle when, std::uint64_t key);

    /** Wheel span in cycles; must be a power of two. */
    static constexpr std::size_t wheelSize = 4096;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t wheelWords = wheelSize / 64;

    struct Record
    {
        Cycle when;
        Event::Priority priority;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *event;

        bool
        operator>(const Record &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    /**
     * A wheel-resident record. The cycle is implied by the bucket (a
     * bucket only ever holds records for the one in-horizon cycle that
     * maps to it), so it is not stored; 32-byte records keep bucket
     * scans dense.
     */
    struct WheelRecord
    {
        Event::Priority priority;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *event;
    };
    static_assert(sizeof(WheelRecord) == 32,
                  "32-byte records keep bucket scans dense");

    /** Put a record for cycle @p when (within the horizon) in its bucket. */
    void pushToWheel(Cycle when, const WheelRecord &rec);

    /**
     * Move overflow records whose cycle now lies within the wheel
     * horizon [_curCycle, _curCycle + wheelSize) into their buckets.
     * Must only be called after the clock has advanced (bucket indices
     * alias modulo wheelSize relative to _curCycle).
     */
    void foldOverflow();

    /**
     * Process every record in @p cycle's bucket in (priority, seq)
     * order, including records scheduled for the same cycle while
     * processing. @return number of live events processed.
     */
    std::uint64_t processCycle(Cycle cycle);

    /**
     * A recyclable one-shot callback event owned by the queue. On
     * process() it releases itself back to the owner's free list
     * before running the callback, so the callback itself may
     * immediately reacquire (and reschedule) the same object.
     */
    class PooledLambdaEvent : public Event
    {
      public:
        explicit PooledLambdaEvent(EventQueue *owner) : owner_(owner) {}

        void
        process() override
        {
            SimCallback fn = std::move(fn_);
            owner_->lambdaFree_.push_back(this);
            fn();
        }

      private:
        friend class EventQueue;

        EventQueue *owner_;
        SimCallback fn_;
    };

    /** A recycled pooled event, or a new one when the pool is dry. */
    PooledLambdaEvent *takeLambdaEvent();

    /** Per-cycle buckets for events within the wheel horizon. */
    std::vector<std::vector<WheelRecord>> wheel_{wheelSize};
    /** One bit per bucket: set while the bucket holds any record. */
    std::uint64_t occupied_[wheelWords] = {};
    /** Records (live or stale) currently in the wheel. */
    std::size_t wheelCount_ = 0;
    /** Events beyond the wheel horizon, ordered by (when, prio, seq). */
    std::priority_queue<Record, std::vector<Record>, std::greater<>>
        overflow_;
    Cycle _curCycle = 0;
    /** Cycle the key counter and dispatch field below belong to. */
    Cycle keyCycle_ = 0;
    /** Ordinary schedule() calls so far in keyCycle_. */
    std::uint64_t keyCounter_ = 0;
    /** Largest [band | age] field dispatched so far in keyCycle_. */
    std::uint64_t keyDispatch_ = 0;
    std::size_t _numScheduled = 0;
    /** Recycled lambda events ready for the next scheduleLambda(). */
    std::vector<PooledLambdaEvent *> lambdaFree_;
    /** Every pooled event this queue ever allocated (for teardown). */
    std::vector<PooledLambdaEvent *> lambdaAll_;

  public:
    ~EventQueue();
};

} // namespace nocstar

#endif // NOCSTAR_SIM_EVENT_QUEUE_HH
