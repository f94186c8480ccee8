package rpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// MasterClient calls the master for the client, the workers and the
// Backup Master. A call checks a connection out of the client's own
// pool, writes one request frame, reads the reply frame itself and
// returns the connection: concurrent callers each hold one connection,
// and up to masterIdleConns stay open for the next calls. A call that
// fails in transport — anything but an error the master returned —
// redials and is retried once: master calls are idempotent or report a
// repeat as their own error.
type MasterClient struct {
	addr string
	pool *ConnPool
}

// masterIdleConns caps the idle connections a MasterClient keeps: more
// than any one daemon's concurrent callers in practice.
const masterIdleConns = 8

// NewMasterClient returns a client of the master at addr; it has not
// dialled yet.
func NewMasterClient(addr string) *MasterClient {
	return &MasterClient{addr: addr, pool: NewConnPool(masterIdleConns, DefaultDataPoolIdle)}
}

// Connect dials the master and keeps the connection for the next call,
// so a caller can fail fast on an unreachable master.
func (c *MasterClient) Connect() error {
	dc, err := c.dial()
	if err == nil {
		c.pool.put(dc)
	}
	return err
}

func (c *MasterClient) dial() (*deadlineConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dialling master %s: %w", c.addr, err)
	}
	return &deadlineConn{Conn: conn, lastAddr: c.addr}, nil
}

// replyReaders pools the buffered readers a call reads its reply
// through, so a small reply costs one read system call.
var replyReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Call invokes method on the master. An error the master returned comes
// back with its core sentinel restored (DecodeError); any other error
// is the transport's, after the one retry.
func (c *MasterClient) Call(method string, args, reply any) error {
	id, ok := methodIDs[method]
	if !ok {
		return fmt.Errorf("rpc: unknown method %s", method)
	}
	req := getScratch()
	defer putScratch(req)
	var err error
	if *req, err = appendRequest((*req)[:0], id, args); err != nil {
		return err
	}
	dc := c.pool.take(c.addr)
	for retried := false; ; retried = true {
		if dc == nil {
			if dc, err = c.dial(); err != nil {
				return err
			}
		}
		var remote error
		if remote, err = c.roundTrip(dc, id, *req, reply); err == nil {
			c.pool.put(dc)
			return remote
		}
		dc.Close()
		if retried {
			return err
		}
		dc = nil
	}
}

// roundTrip sends one request on dc and reads its reply. err is a
// transport failure, after which dc is unusable; remote is the master's
// error or a reply that would not decode.
func (c *MasterClient) roundTrip(dc *deadlineConn, id byte, req []byte, reply any) (remote, err error) {
	if _, err := dc.Write(req); err != nil {
		return nil, fmt.Errorf("rpc: calling master %s: %w", c.addr, err)
	}
	r := replyReaders.Get().(*bufio.Reader)
	r.Reset(dc)
	defer func() {
		r.Reset(nil)
		replyReaders.Put(r)
	}()
	buf := getScratch()
	defer putScratch(buf)
	typ, body, err := readFrame(r, buf, maxMasterFrame)
	if err == nil && (typ != id || r.Buffered() != 0) {
		err = fmt.Errorf("rpc: reply to %s out of step", methodName(id))
	}
	if err != nil {
		return nil, fmt.Errorf("rpc: calling master %s: %w", c.addr, err)
	}
	return decodeReply(body, reply), nil
}

// Close closes the idle connections; a later call dials again.
func (c *MasterClient) Close() error {
	c.pool.Clear()
	return nil
}
