//! Client/server message passing — the micro-kernel's only service
//! access path.
//!
//! All system services are provided by server applications; clients
//! access them via kernel-supported message passing. Two panic codes
//! of Table 2 live on this path:
//!
//! * `KERN-SVR 70` — a server attempted to complete a request through
//!   a null `RMessagePtr`;
//! * `MSGS Client 3` — the messaging server failed to write data back
//!   into the asynchronous call descriptor of its client (modelled by
//!   the write-back overflowing the client's descriptor).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::descriptor::TBuf;
use crate::leave::LeaveCode;
use crate::panic::{codes, Panic};

/// Identifier of an in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(u64);

/// A pointer to an in-flight message, as held by a server. Becoming
/// null (e.g. after a double-complete or a bookkeeping bug) is the
/// `KERN-SVR 70` scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RMessagePtr(Option<MessageId>);

impl RMessagePtr {
    /// A null message pointer.
    pub fn null() -> Self {
        RMessagePtr(None)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct InFlight {
    client: String,
    opcode: u32,
    /// Capacity of the client-side descriptor awaiting the reply.
    reply_capacity: usize,
}

/// A server port with a request queue.
///
/// # Example
///
/// ```
/// use symfail_symbian::ipc::ServerPort;
///
/// let mut port = ServerPort::new("MsgServer", 8);
/// let msg = port.send("Messages", 1, 64)?;
/// let reply = port.complete(msg, "OK")?;
/// assert_eq!(reply.as_str(), "OK");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerPort {
    name: String,
    max_outstanding: usize,
    inflight: BTreeMap<u64, InFlight>,
    next_id: u64,
}

impl ServerPort {
    /// Creates a server port accepting up to `max_outstanding`
    /// concurrent requests.
    pub fn new(name: &str, max_outstanding: usize) -> Self {
        Self {
            name: name.to_string(),
            max_outstanding,
            inflight: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Sends a request from `client` with the given opcode;
    /// `reply_capacity` is the size of the client descriptor that will
    /// receive the reply.
    ///
    /// # Errors
    ///
    /// Leaves with [`LeaveCode::ServerBusy`] when the queue is full.
    pub fn send(
        &mut self,
        client: &str,
        opcode: u32,
        reply_capacity: usize,
    ) -> Result<RMessagePtr, LeaveCode> {
        if self.inflight.len() >= self.max_outstanding {
            return Err(LeaveCode::ServerBusy);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.insert(
            id,
            InFlight {
                client: client.to_string(),
                opcode,
                reply_capacity,
            },
        );
        Ok(RMessagePtr(Some(MessageId(id))))
    }

    /// Completes a request, writing `reply` back into the client's
    /// descriptor.
    ///
    /// # Errors
    ///
    /// * `KERN-SVR 70` when `msg` is null or no longer in flight
    ///   (double completion);
    /// * `MSGS Client 3` when the write-back does not fit the client's
    ///   descriptor — the asynchronous-descriptor failure of Table 2.
    pub fn complete(&mut self, msg: RMessagePtr, reply: &str) -> Result<TBuf, Panic> {
        let id = match msg.0 {
            Some(MessageId(id)) => id,
            None => {
                return Err(Panic::new(
                    codes::KERN_SVR_70,
                    self.name.clone(),
                    "request completion through a null RMessagePtr",
                ))
            }
        };
        let inflight = self.inflight.remove(&id).ok_or_else(|| {
            Panic::new(
                codes::KERN_SVR_70,
                self.name.clone(),
                format!("completion of message {id} that is no longer in flight"),
            )
        })?;
        let mut buf = TBuf::with_max_length(inflight.reply_capacity);
        buf.copy(reply).map_err(|_| {
            Panic::new(
                codes::MSGS_CLIENT_3,
                inflight.client.clone(),
                format!(
                    "failed to write {} chars into asynchronous call descriptor of capacity {} \
                     (opcode {})",
                    reply.chars().count(),
                    inflight.reply_capacity,
                    inflight.opcode
                ),
            )
        })?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_round_trip() {
        let mut port = ServerPort::new("SysAgent", 4);
        let m = port.send("Battery", 7, 16).unwrap();
        let reply = port.complete(m, "78%").unwrap();
        assert_eq!(reply.as_str(), "78%");
        assert_eq!(port.inflight.len(), 0);
    }

    #[test]
    fn null_rmessageptr_is_kern_svr_70() {
        let mut port = ServerPort::new("MsgServer", 4);
        let p = port.complete(RMessagePtr::null(), "x").unwrap_err();
        assert_eq!(p.code, codes::KERN_SVR_70);
        assert_eq!(p.raised_by, "MsgServer");
    }

    #[test]
    fn double_completion_is_kern_svr_70() {
        let mut port = ServerPort::new("MsgServer", 4);
        let m = port.send("Messages", 1, 16).unwrap();
        port.complete(m, "first").unwrap();
        let p = port.complete(m, "second").unwrap_err();
        assert_eq!(p.code, codes::KERN_SVR_70);
    }

    #[test]
    fn oversized_write_back_is_msgs_client_3() {
        let mut port = ServerPort::new("MsgServer", 4);
        let m = port.send("Messages", 2, 4).unwrap();
        let p = port.complete(m, "way too long").unwrap_err();
        assert_eq!(p.code, codes::MSGS_CLIENT_3);
        assert_eq!(p.raised_by, "Messages", "panic attributed to the client");
        assert!(p.reason.contains("opcode 2"));
    }

    #[test]
    fn backpressure_leaves_server_busy() {
        let mut port = ServerPort::new("Busy", 1);
        let _m = port.send("a", 0, 8).unwrap();
        assert_eq!(port.send("b", 0, 8), Err(LeaveCode::ServerBusy));
    }
}
