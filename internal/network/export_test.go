package network

// EnumerateCuts exposes the cut enumerator to the differential test.
var EnumerateCuts = enumerateCuts

// ConeTable exposes the cone simulator to the differential test.
var ConeTable = coneTable
