// Package group is the fixture's stand-in for the delivered cast: the
// analyzer matches *CastEvent by package and type name.
package group

import "fix/appia"

// CastEvent is what OnDeliver/OnCast callbacks receive.
type CastEvent struct {
	Msg    *appia.Message
	Origin uint32
	Group  string
}
