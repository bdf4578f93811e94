package network

// EnumerateCuts exposes the cut enumerator to the differential test.
var EnumerateCuts = enumerateCuts
