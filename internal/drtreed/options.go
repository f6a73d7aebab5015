package drtreed

// Functional options over Config. The bare-struct constructor grew the
// usual failure mode: zero values silently meaning "default" made it
// impossible to distinguish "unset" from "deliberately zero", and
// invalid combinations (negative fanouts, empty peer lists) surfaced
// deep inside New instead of at the call site. Options validate
// eagerly — each returns an error the moment it is applied — and
// withDefaults stays the single place zero values are resolved (the
// audit test in options_test.go pins that every Config field has
// exactly one of: a validated option, a documented default, or both).

import (
	"fmt"
	"net"
)

// Option configures a daemon at construction.
type Option func(*Config) error

// WithNode sets this daemon's index into the peer list.
func WithNode(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("drtreed: node index must be >= 0, got %d", n)
		}
		c.Node = n
		return nil
	}
}

// WithPeers sets every daemon's overlay TCP address, index-aligned with
// the node index. A single-entry list is a standalone daemon.
func WithPeers(addrs ...string) Option {
	return func(c *Config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("drtreed: empty peer list")
		}
		c.Peers = append([]string(nil), addrs...)
		return nil
	}
}

// WithListener supplies the pre-bound overlay listener (port-0 test
// rigs); without it the daemon listens on its own peer address.
func WithListener(ln net.Listener) Option {
	return func(c *Config) error {
		c.Listener = ln
		return nil
	}
}

// WithHTTPAddr sets the WebSocket/health endpoint address; empty (the
// default) disables the HTTP front end.
func WithHTTPAddr(addr string) Option {
	return func(c *Config) error {
		c.HTTPAddr = addr
		return nil
	}
}

// WithHTTPListener supplies the pre-bound HTTP listener.
func WithHTTPListener(ln net.Listener) Option {
	return func(c *Config) error {
		c.HTTPListener = ln
		return nil
	}
}

// WithSpace sets the attribute space, in dimension order. Every daemon
// of a deployment must use the identical space.
func WithSpace(attrs ...string) Option {
	return func(c *Config) error {
		if len(attrs) == 0 {
			return fmt.Errorf("drtreed: empty attribute space")
		}
		c.Space = append([]string(nil), attrs...)
		return nil
	}
}

// WithGateways sets the local broker's gateway-pool size (default 4).
func WithGateways(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("drtreed: gateway count must be >= 1, got %d", n)
		}
		c.Gateways = n
		return nil
	}
}

// WithFanout sets the DR-tree fanout bounds (default 2/4; the paper
// requires M >= 2m).
func WithFanout(min, max int) Option {
	return func(c *Config) error {
		if min < 2 || max < 2*min {
			return fmt.Errorf("drtreed: fanout bounds (%d, %d) violate M >= 2m >= 4", min, max)
		}
		c.MinFanout, c.MaxFanout = min, max
		return nil
	}
}

// WithLogf sinks daemon logs (default: discard).
func WithLogf(f func(format string, args ...any)) Option {
	return func(c *Config) error {
		c.Logf = f
		return nil
	}
}

// WithDataDir makes the daemon durable: subscription operations are
// journaled to a write-ahead log under dir (created if absent), and a
// daemon restarted over the same directory resumes serving its
// pre-crash subscription set — clients re-attach to their subscription
// IDs instead of resubscribing. Empty (the default) keeps the daemon
// memory-only.
func WithDataDir(dir string) Option {
	return func(c *Config) error {
		c.DataDir = dir
		return nil
	}
}

// WithSnapshotEvery sets the durable daemon's checkpoint cadence: a
// snapshot+compact of the subscription journal after every n journaled
// operations (default: the broker's own default cadence). Meaningless
// without WithDataDir.
func WithSnapshotEvery(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("drtreed: snapshot cadence must be >= 1, got %d", n)
		}
		c.SnapshotEvery = n
		return nil
	}
}
