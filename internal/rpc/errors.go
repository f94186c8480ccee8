// Package rpc provides the wire-level building blocks shared by the
// OctopusFS master, workers, and client: one frame format with the
// master protocol's client and server on top of it, stable error codes
// that survive the wire, and the checksummed streaming protocol used on
// the workers' data-transfer port.
package rpc

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
)

// codes maps stable wire codes to the core sentinel errors. Codes — not
// message text — are what cross the network, so errors.Is keeps working
// on the client side after a round trip.
var codes = []struct {
	code string
	err  error
}{
	{"E_NOTFOUND", core.ErrNotFound},
	{"E_EXISTS", core.ErrExists},
	{"E_NOTDIR", core.ErrNotDirectory},
	{"E_ISDIR", core.ErrIsDirectory},
	{"E_NOTEMPTY", core.ErrNotEmpty},
	{"E_NOSPACE", core.ErrNoSpace},
	{"E_QUOTA", core.ErrQuotaExceeded},
	{"E_PERM", core.ErrPermission},
	{"E_OPEN", core.ErrFileOpen},
	{"E_CLOSED", core.ErrFileClosed},
	{"E_CORRUPT", core.ErrCorrupt},
	{"E_NOWORKERS", core.ErrNoWorkers},
	{"E_SHUTDOWN", core.ErrShutdown},
}

// EncodeError converts an error into its wire representation:
// "<CODE>: <message>" for recognised sentinels, the bare message
// otherwise. A nil error encodes to "".
func EncodeError(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range codes {
		if errors.Is(err, c.err) {
			return c.code + ": " + err.Error()
		}
	}
	return err.Error()
}

// DecodeError reverses EncodeError: a recognised code prefix yields an
// error wrapping the corresponding sentinel, so errors.Is works across
// the RPC boundary. An empty string decodes to nil.
func DecodeError(s string) error {
	if s == "" {
		return nil
	}
	for _, c := range codes {
		if strings.HasPrefix(s, c.code+": ") {
			msg := strings.TrimPrefix(s, c.code+": ")
			// A request-ID tag (WithReqID) sits after the sentinel
			// text; lift it out so the suffix strip still applies.
			req := ""
			if i := strings.LastIndex(msg, " [req="); i >= 0 && strings.HasSuffix(msg, "]") {
				msg, req = msg[:i], msg[i:]
			}
			return fmt.Errorf("%s%s: %w", strings.TrimSuffix(msg, ": "+c.err.Error()), req, c.err)
		}
	}
	return errors.New(s)
}
