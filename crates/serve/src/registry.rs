//! The tenant registry: maps the encoded address prefix of each tenant
//! to its engine and admission state.
//!
//! Routing never decodes the address. A tenant's routing key is its
//! encoded first segment ([`crate::wire::Address::routing_prefix`]);
//! because the segment encoding is length-pinned by its leading
//! ordinal, one tenant's key can never be a byte prefix of another's,
//! and a single SWAR `starts_with` per tenant resolves the route.

use std::sync::{Mutex, MutexGuard, PoisonError};

use vh_pbn::keys::starts_with_swar;
use vh_query::Engine;

use crate::admission::{Admission, TenantQuota};
use crate::wire::{Address, Reject};

/// One registered tenant.
pub struct Tenant {
    name: String,
    prefix: Vec<u8>,
    // `Engine` is `Send + Sync`, but edits need `&mut Engine`, so one
    // mutex serialises a tenant's reads and writes, exactly like the
    // vh-workload read/write scenario.
    engine: Mutex<Engine>,
    admission: Admission,
}

impl Tenant {
    /// The tenant's name (the address's first segment, decoded).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded routing prefix.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Locks the tenant engine (poison-tolerant: a panicked request
    /// must not take the tenant down with it).
    pub fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tenant's admission controller.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }
}

/// All tenants one server instance routes between.
#[derive(Default)]
pub struct Registry {
    tenants: Vec<Tenant>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a tenant. Fails on a duplicate name (two tenants with
    /// the same name would share a routing prefix).
    pub fn add_tenant(
        &mut self,
        name: &str,
        engine: Engine,
        quota: TenantQuota,
    ) -> Result<(), Reject> {
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(Reject::new(
                crate::wire::WireStatus::BadAddress,
                format!("tenant '{name}' is already registered"),
            ));
        }
        let prefix = Address::routing_prefix(name)?;
        self.tenants.push(Tenant {
            name: name.to_owned(),
            prefix,
            engine: Mutex::new(engine),
            admission: Admission::new(quota),
        });
        Ok(())
    }

    /// Routes raw request-payload bytes (which begin with the encoded
    /// address) to the owning tenant, without decoding anything.
    pub fn route(&self, payload: &[u8]) -> Option<&Tenant> {
        self.tenants
            .iter()
            .find(|t| starts_with_swar(payload, &t.prefix))
    }

    /// Looks a tenant up by name.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Registered tenant names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tenants.iter().map(|t| t.name.as_str())
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Request, RequestBody};

    fn request_bytes(tenant: &str) -> Vec<u8> {
        Request {
            address: Address::new(tenant, "books.xml", "query"),
            body: RequestBody::Point {
                path: "//title".into(),
            },
        }
        .encode()
        .map_err(|e| e.message)
        .unwrap_or_default()
    }

    #[test]
    fn routing_is_by_encoded_prefix_not_string_prefix() {
        let mut r = Registry::new();
        r.add_tenant("acme", Engine::new(), TenantQuota::default())
            .map_err(|e| e.message)
            .ok();
        r.add_tenant("acmeX", Engine::new(), TenantQuota::default())
            .map_err(|e| e.message)
            .ok();
        assert_eq!(r.len(), 2);
        // "acme" and "acmeX" are string-prefix related but route
        // unambiguously: the leading length ordinal differs.
        assert_eq!(
            r.route(&request_bytes("acme")).map(Tenant::name),
            Some("acme")
        );
        assert_eq!(
            r.route(&request_bytes("acmeX")).map(Tenant::name),
            Some("acmeX")
        );
        assert!(r.route(&request_bytes("nobody")).is_none());
    }

    #[test]
    fn duplicate_tenants_are_refused() {
        let mut r = Registry::new();
        assert!(r
            .add_tenant("acme", Engine::new(), TenantQuota::default())
            .is_ok());
        assert!(r
            .add_tenant("acme", Engine::new(), TenantQuota::default())
            .is_err());
    }
}
