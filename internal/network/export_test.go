package network

import (
	"relsyn/internal/bitset"
	"relsyn/internal/tt"
)

// EnumerateCuts exposes the cut enumerator to the differential test.
var EnumerateCuts = enumerateCuts

// ConeTable exposes the cone simulator to the differential test.
var ConeTable = coneTable

// CompleteConventional exposes the espresso completion to the oracle.
var CompleteConventional = completeConventional

// LocalSpecOn is LocalSpec on prebuilt signal tables, so the
// differential test need not rebuild them per node.
func (nw *Network) LocalSpecOn(tabs []*bitset.Set, ni int) *tt.Function {
	spec, _ := nw.localSpec(tabs, ni, nil) // nil poll: no error
	return spec
}
