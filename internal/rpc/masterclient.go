package rpc

import (
	"fmt"
	netrpc "net/rpc"
	"sync"
)

// MasterClient calls the master's RPC service for the client, the
// workers and the Backup Master. It dials on first use and shares one
// connection among all goroutines; the mutex guards only the pointer to
// it. A call that fails in transport — anything but an error the server
// returned — redials and is retried once: master calls are idempotent or
// report a repeat as their own error.
type MasterClient struct {
	addr string
	mu   sync.Mutex
	c    *netrpc.Client
}

// NewMasterClient returns a client of the master at addr; it has not
// dialled yet.
func NewMasterClient(addr string) *MasterClient { return &MasterClient{addr: addr} }

// Connect dials the master unless a connection is already up, so a
// caller can fail fast on an unreachable master.
func (c *MasterClient) Connect() error {
	_, err := c.conn(nil)
	return err
}

// conn returns the shared connection, first closing it if it is stale
// and dialling a new one if there is none.
func (c *MasterClient) conn(stale *netrpc.Client) (*netrpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stale != nil && c.c == stale {
		c.c.Close()
		c.c = nil
	}
	if c.c == nil {
		nc, err := netrpc.Dial("tcp", c.addr)
		if err != nil {
			return nil, fmt.Errorf("rpc: dialling master %s: %w", c.addr, err)
		}
		c.c = nc
	}
	return c.c, nil
}

// Call invokes method on the master, mapping the error back onto the
// core sentinels (WrapRemote).
func (c *MasterClient) Call(method string, args, reply any) error {
	nc, err := c.conn(nil)
	if err == nil {
		err = nc.Call(method, args, reply)
		if _, server := err.(netrpc.ServerError); err != nil && !server {
			if nc, err = c.conn(nc); err == nil {
				err = nc.Call(method, args, reply)
			}
		}
	}
	return WrapRemote(err)
}

// Close closes the connection; a later call dials again.
func (c *MasterClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c == nil {
		return nil
	}
	err := c.c.Close()
	c.c = nil
	return err
}
