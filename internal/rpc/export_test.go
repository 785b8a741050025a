package rpc

// MaxIdle is the bound on the connections a Channels keeps, for the reuse
// conformance rows.
const MaxIdle = maxIdle
