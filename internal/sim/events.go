package sim

// Cycle is a point in simulated time, measured in processor clock
// cycles (the target chip runs at 3 GHz, so 3e6 cycles = 1 ms).
type Cycle = uint64

// Never is the event horizon of a source with nothing scheduled: later
// than any reachable simulation cycle. Event-driven run loops compare
// against it to skip consulting an inert source.
const Never = ^Cycle(0)
