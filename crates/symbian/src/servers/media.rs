//! Multimedia framework audio client — home of `MMFAudioClient 4`.
//!
//! The MMF audio client accepts volume settings in `0..=9`; passing 10
//! or more to `SetVolume(TInt)` raises the panic, exactly as Table 2
//! documents.

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// The audio client of the multimedia framework.
///
/// # Example
///
/// ```
/// use symfail_symbian::servers::media::AudioClient;
/// use symfail_symbian::panic::codes;
///
/// let mut audio = AudioClient::new("MusicPlayer");
/// audio.set_volume(9)?;
/// let p = audio.set_volume(10).unwrap_err();
/// assert_eq!(p.code, codes::MMF_AUDIO_CLIENT_4);
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AudioClient {
    app: String,
    volume: i32,
}

impl AudioClient {
    /// Maximum legal volume value.
    pub const MAX_VOLUME: i32 = 9;

    /// Creates an audio client for the named application, at volume 5.
    pub fn new(app: &str) -> Self {
        Self {
            app: app.to_string(),
            volume: 5,
        }
    }

    /// Sets the playback volume (`SetVolume(TInt)`).
    ///
    /// # Errors
    ///
    /// Raises `MMFAudioClient 4` when `volume >= 10`, and clamps
    /// negative values to zero (as the real client does).
    pub fn set_volume(&mut self, volume: i32) -> Result<(), Panic> {
        if volume > Self::MAX_VOLUME {
            return Err(Panic::new(
                codes::MMF_AUDIO_CLIENT_4,
                self.app.clone(),
                format!("SetVolume({volume}) with value 10 or more"),
            ));
        }
        self.volume = volume.max(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_boundaries() {
        let mut a = AudioClient::new("Ringtone");
        a.set_volume(0).unwrap();
        a.set_volume(9).unwrap();
        assert_eq!(a.volume, 9);
        let p = a.set_volume(10).unwrap_err();
        assert_eq!(p.code, codes::MMF_AUDIO_CLIENT_4);
        assert_eq!(a.volume, 9, "failed set leaves volume unchanged");
    }

    #[test]
    fn negative_volume_clamped() {
        let mut a = AudioClient::new("Ringtone");
        a.set_volume(-3).unwrap();
        assert_eq!(a.volume, 0);
    }
}
