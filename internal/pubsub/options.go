package pubsub

// The broker's one coherent option surface. Historically Option (a bare
// func over brokerConfig) and DeliveryOption (a bare func over
// deliveryConfig) were disjoint types: New took only the former,
// Subscribe* only the latter, and broker-wide delivery defaults were
// impossible to express. Both are now interfaces with private apply
// hooks, and every DeliveryOption is also an Option: passed to New it
// sets the broker-wide default that per-subscription options then
// override. WithStore and WithSnapshotEvery join the same set to make
// the broker durable.

import (
	"fmt"

	"drtree/internal/core"
	"drtree/internal/state"
)

// Option configures a Broker at construction. Every DeliveryOption is
// also an Option (a broker-wide delivery default), so New accepts one
// flat option list.
type Option interface {
	applyBroker(*brokerConfig) error
}

// DeliveryOption configures a queue-backed subscription. Passed to a
// Subscribe/Attach call it configures that subscriber; passed to New it
// sets the broker-wide default.
type DeliveryOption interface {
	Option
	applyDelivery(*deliveryConfig) error
}

type brokerConfig struct {
	policy        gatewayPolicy // zero until a pool option sets it
	gwBase        core.ProcID
	store         state.Store
	snapshotEvery int
	delivery      deliveryConfig
}

// setPool installs the pool configuration. Either pool option may be
// repeated (the last wins), but the two do not mix.
func (c *brokerConfig) setPool(p gatewayPolicy) error {
	if c.policy.max > 0 && c.policy.hash != p.hash {
		return fmt.Errorf("pubsub: WithGateways and WithGatewayPolicy are mutually exclusive")
	}
	c.policy = p
	return nil
}

// brokerOption adapts a plain function into an Option.
type brokerOption func(*brokerConfig) error

func (o brokerOption) applyBroker(c *brokerConfig) error { return o(c) }

// deliveryOption adapts a plain function into a DeliveryOption; applied
// at the broker level it edits the broker-wide delivery defaults.
type deliveryOption func(*deliveryConfig) error

func (o deliveryOption) applyBroker(c *brokerConfig) error     { return o(&c.delivery) }
func (o deliveryOption) applyDelivery(c *deliveryConfig) error { return o(c) }

// WithGateways makes the pool a hash pool of n gateways (default
// DefaultGateways): subscriber id lives on gateway base + id mod n, and
// the pool never splits, drains or retires (min = max = n). Its shape
// and assignment are configuration, so a durable broker recovered with a
// different n re-hashes every subscriber onto the new pool. More
// gateways mean smaller per-gateway match indexes and tighter overlay
// filters; fewer mean a smaller overlay.
func WithGateways(n int) Option {
	return brokerOption(func(c *brokerConfig) error {
		if n < 1 {
			return fmt.Errorf("pubsub: gateway count must be >= 1, got %d", n)
		}
		return c.setPool(gatewayPolicy{hash: true, min: n, max: n})
	})
}

// WithGatewayPolicy makes the pool a fit pool: it starts at min
// gateways, a gateway reaching target subscriptions splits its entry set
// onto a new overlay member (up to max gateways), and a gateway draining
// far below target hands its entries to its peers and retires from the
// overlay. Subscriptions are placed on the gateway whose MBR-union they
// enlarge least, so the pool stays spatially coherent and the top-level
// routing tree prunes classify work (Notification.GatewayVisited). Pool
// membership and subscription assignment changes are journaled on a
// durable broker; Recover rebuilds the exact pre-crash pool and
// assignment. Mutually exclusive with WithGateways.
func WithGatewayPolicy(target, min, max int) Option {
	return brokerOption(func(c *brokerConfig) error {
		if target < 1 {
			return fmt.Errorf("pubsub: gateway target load must be >= 1, got %d", target)
		}
		if min < 1 {
			return fmt.Errorf("pubsub: gateway pool floor must be >= 1, got %d", min)
		}
		if max < min {
			return fmt.Errorf("pubsub: gateway pool ceiling %d below floor %d", max, min)
		}
		return c.setPool(gatewayPolicy{target: target, min: min, max: max})
	})
}

// WithGatewayBase sets the overlay process ID of the first gateway;
// gateway i of the pool becomes process base+i (default base 1, the
// historical numbering). Daemons hosting slices of one shared overlay
// give each broker a disjoint base so gateway IDs never collide across
// machines.
func WithGatewayBase(base core.ProcID) Option {
	return brokerOption(func(c *brokerConfig) error {
		if base <= core.NoProc {
			return fmt.Errorf("pubsub: gateway base must be positive, got %d", base)
		}
		c.gwBase = base
		return nil
	})
}

// WithStore makes the broker durable: every Subscribe, Unsubscribe and
// UpdateFilter is journaled to s before the call returns, and a broker
// constructed over the same store later rebuilds the subscription set
// with Recover. The broker does not own the store's lifetime; close it
// after the broker.
func WithStore(s state.Store) Option {
	return brokerOption(func(c *brokerConfig) error {
		if s == nil {
			return fmt.Errorf("pubsub: nil store")
		}
		c.store = s
		return nil
	})
}

// WithSnapshotEvery sets the checkpoint cadence of a durable broker: a
// snapshot+compact cycle runs in the background after every n journaled
// operations (default DefaultSnapshotEvery; 0 disables automatic
// checkpoints — Checkpoint can still be called explicitly).
func WithSnapshotEvery(n int) Option {
	return brokerOption(func(c *brokerConfig) error {
		if n < 0 {
			return fmt.Errorf("pubsub: snapshot cadence must be >= 0, got %d", n)
		}
		c.snapshotEvery = n
		return nil
	})
}

// WithQueueDepth sets the subscriber's queue capacity (default
// DefaultQueueDepth).
func WithQueueDepth(n int) DeliveryOption {
	return deliveryOption(func(c *deliveryConfig) error {
		if n < 1 {
			return fmt.Errorf("pubsub: queue depth must be >= 1, got %d", n)
		}
		c.depth = n
		return nil
	})
}
