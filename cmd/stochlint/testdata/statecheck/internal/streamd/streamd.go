// Package streamd is the statecheck mutation corpus's protocol endpoint:
// its dispatch handles every frame type the wire package defines.
// TestStatecheckMutants deletes the case marked ci:mutate-wire and then
// expects wirexhaustive to fail the driver naming the unreachable constant.
package streamd

import "stochstream/internal/streamd/wire"

// Dispatch routes one inbound frame.
func Dispatch(typ uint8) string {
	switch typ {
	case wire.TypeHello:
		return "hello"
	case wire.TypeData: // ci:mutate-wire
		return "data"
	case wire.TypeBye:
		return "bye"
	}
	return "unknown"
}
