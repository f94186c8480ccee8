package rpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// MasterClient calls the master for the client, the workers and the
// Backup Master. A batch of calls checks a connection out of the
// client's own pool, writes every request frame in one write, reads the
// replies itself, in order, and returns the connection: concurrent
// callers each hold one connection, and up to masterIdleConns stay open
// for the next calls. A batch that fails in transport — anything but an
// error the master returned — redials and is retried once, whole:
// master calls are idempotent or report a repeat as their own error.
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

// replyReaders pools the buffered readers a batch reads its replies
// through, so small replies cost one read system call.
var replyReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Call is one master call of a batch. Batch fills in Err — the
// master's error with its core sentinel restored (DecodeError), a reply
// that would not decode, or the transport's failure — and Done, when
// the call's reply was read.
type Call struct {
	Method      string
	Args, Reply any
	Err         error
	Done        time.Time

	id    byte
	frame *[]byte // the reply frame, held until the whole batch is read
}

// Call invokes method on the master: a batch of one.
func (c *MasterClient) Call(method string, args, reply any) error {
	calls := [1]Call{{Method: method, Args: args, Reply: reply}}
	c.Batch(calls[:])
	return calls[0].Err
}

// Batch invokes calls on the master in order, over one connection and
// one round trip. A reply is decoded only once every reply of the batch
// has arrived, so the retry after a transport failure never sees a
// reply half filled by the first attempt. Keep a batch to a few small
// calls: its replies are read only after all its requests are written,
// so requests and replies together must fit the sockets' buffers.
func (c *MasterClient) Batch(calls []Call) {
	if len(calls) == 0 {
		return
	}
	req := getScratch()
	defer putScratch(req)
	for i := range calls {
		var err error
		if *req, err = calls[i].appendRequest(*req); err != nil {
			failBatch(calls, err)
			return
		}
	}
	dc := c.pool.take(c.addr)
	for retried := false; ; retried = true {
		var err error
		if dc == nil {
			if dc, err = c.dial(); err != nil {
				failBatch(calls, err)
				return
			}
		}
		if err = c.roundTrip(dc, *req, calls); err == nil {
			c.pool.put(dc)
			for i := range calls {
				call := &calls[i]
				call.Err = decodeReply((*call.frame)[frameHeaderLen+1:], call.Reply.(message))
				call.release()
			}
			return
		}
		dc.Close()
		if retried {
			failBatch(calls, err)
			return
		}
		dc = nil
	}
}

// appendRequest resolves the call's method and appends its request
// frame to buf.
func (call *Call) appendRequest(buf []byte) ([]byte, error) {
	id, ok := methodIDs[call.Method]
	if !ok {
		return buf, fmt.Errorf("rpc: unknown method %s", call.Method)
	}
	a, aok := call.Args.(message)
	_, rok := call.Reply.(message)
	if !aok || !rok {
		return buf, fmt.Errorf("rpc: %s takes %T and %T, not %T and %T", call.Method, methods[id].args(), methods[id].reply(), call.Args, call.Reply)
	}
	call.id = id
	return appendRequest(buf, id, a)
}

// release returns the call's reply frame buffer to the pool.
func (call *Call) release() {
	if call.frame != nil {
		putScratch(call.frame)
		call.frame = nil
	}
}

// failBatch ends every call of a batch with err.
func failBatch(calls []Call, err error) {
	now := time.Now()
	for i := range calls {
		calls[i].Err, calls[i].Done = err, now
		calls[i].release()
	}
}

// roundTrip sends a batch's request frames on dc and reads a reply
// frame for each call, in order, into its frame buffer. An error is a
// transport failure, after which dc is unusable.
func (c *MasterClient) roundTrip(dc *deadlineConn, req []byte, calls []Call) error {
	if _, err := dc.Write(req); err != nil {
		return fmt.Errorf("rpc: calling master %s: %w", c.addr, err)
	}
	r := replyReaders.Get().(*bufio.Reader)
	r.Reset(dc)
	defer func() {
		r.Reset(nil)
		replyReaders.Put(r)
	}()
	for i := range calls {
		call := &calls[i]
		if call.frame == nil {
			call.frame = getScratch()
		}
		typ, _, err := readFrame(r, call.frame, maxMasterFrame)
		if err == nil && typ != call.id {
			err = fmt.Errorf("rpc: reply to %s out of step", methodName(call.id))
		}
		if err != nil {
			return fmt.Errorf("rpc: calling master %s: %w", c.addr, err)
		}
		call.Done = time.Now()
	}
	if r.Buffered() != 0 {
		return fmt.Errorf("rpc: calling master %s: reply to %s out of step", c.addr, methodName(calls[len(calls)-1].id))
	}
	return nil
}

// Close closes the idle connections; a later call dials again.
func (c *MasterClient) Close() error {
	c.pool.Clear()
	return nil
}
