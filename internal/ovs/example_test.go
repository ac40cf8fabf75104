package ovs_test

import (
	"fmt"

	"cocosketch/internal/ovs"
	"cocosketch/internal/trace"
)

// ExampleRingOf shows the single-producer single-consumer ring on its
// own: batched push and pop with the cached-index fast path.
func ExampleRingOf() {
	r := ovs.NewRingOf[trace.Packet](8)

	in := make([]trace.Packet, 5)
	for i := range in {
		in[i].Size = uint32(i + 1)
	}
	pushed := r.TryPushN(in)

	out := make([]trace.Packet, 8)
	popped := r.TryPopN(out)

	fmt.Println("pushed:", pushed, "popped:", popped)
	fmt.Println("first size:", out[0].Size, "last size:", out[popped-1].Size)
	// Output:
	// pushed: 5 popped: 5
	// first size: 1 last size: 5
}
