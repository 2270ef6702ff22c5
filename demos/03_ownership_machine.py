"""One state machine per allocation.

Every allocation site gets a Machine that walks
Start -> Alloced -> Freed -> End, with Error as the trap state for
double releases and allocator/release mismatches.  The trace records
every edge, and replay() re-validates a finished trace against the
legal edge set.
"""

from zkleak import AllocRecord, LEGAL_EDGES, Machine

print("legal edges:")
for a, b in sorted(LEGAL_EDGES):
    print(f"  {a} -> {b}")
print()


def show(title, machine, error=None):
    """Print the trace and replay of *machine*, and the error, if any,
    that the call ending its lifetime returned."""
    print(title)
    for entry in machine.trace:
        print("   ", entry)
    state, ok = machine.replay()
    print(f"  final={machine.state.value}  replay=({state}, {ok})")
    if error:
        print(f"  error: {error.kind.value}: {error.message}")
    print()


# A clean lifetime: malloc at line 3, free at line 7, function ends at 9.
m = Machine(1, AllocRecord(3, "malloc", owner=1))
m.begin()
m.release("free", 7)
m.finish(9)
show("clean:", m)

# Forgetting the release turns the end of the function into a claim.
m = Machine(2, AllocRecord(3, "malloc", owner=1))
m.begin()
show("leaked:", m, m.finish(9))

# Releasing twice trips the trap state on the second call.
m = Machine(3, AllocRecord(3, "malloc", owner=1))
m.begin()
m.release("free", 5)
show("double free:", m, m.release("free", 7))

# new[] paired with delete is a mismatch even though both "free" memory.
m = Machine(4, AllocRecord(3, "new_array", owner=1))
m.begin()
show("mismatched pair:", m, m.release("delete", 7))

# Losing the last pointer while the block is live is its own defect.
m = Machine(5, AllocRecord(3, "malloc", owner=1))
m.begin()
show("ownership lost:", m, m.drop_owner(1, 6, "nulled"))

# A call into code we cannot see taints the machine: the closure edge
# is the one deliberate exception to the legal set, and replay() knows.
m = Machine(6, AllocRecord(3, "malloc", owner=1))
m.begin()
m.taint()
m.finish(9)
show("tainted (benefit of the doubt):", m)
