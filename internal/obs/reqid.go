package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Request IDs tie a served request's admission decision, its solver trace
// events and its structured log line together. An ID is a random per-process
// prefix plus a monotonic sequence number — unique across restarts of the
// same daemon (fresh prefix) and trivially ordered within one process, while
// staying cheap enough to mint on the admission hot path (one atomic add).

var reqIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// fixed prefix rather than failing admission.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Uint64

// NewRequestID mints a process-unique request ID such as "3fa95c1b-000042".
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}
